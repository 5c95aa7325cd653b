package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary, recorded by the driver
// around its own calls into the layer. Spans of one operation share Op;
// Parent names the span of the same operation that caused this one ("" for
// the operation's root). Times are nanoseconds on the driver's clock.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxTraceOps bounds the operations whose spans are written out: the layer
// statistics use every operation, the file keeps an evenly strided sample.
const maxTraceOps = 20000

// traceStride returns the sampling stride that keeps at most maxTraceOps of
// ops operations.
func traceStride(ops int) int {
	return ops/maxTraceOps + 1
}

// budgetRow is one line of the budget table: a phase of the operation and
// its duration in the median operation (or, for sweeps, its share of the
// run's wall time).
type budgetRow struct {
	name string
	ms   float64
}

// medianOperation returns the make-up of the median operation: each phase's
// mean over the operations whose total lies between the 45th and the 55th
// percentile. phases are index-aligned, one value per operation, and add up
// to the operation's total. The medians of the phases would not do: they do
// not add up to the median of the total when the phases are skewed.
func medianOperation(phases ...[]float64) []float64 {
	n := len(phases[0])
	out := make([]float64, len(phases))
	if n == 0 {
		return out
	}
	total := make([]float64, n)
	order := make([]int, n)
	for i := range total {
		order[i] = i
		for _, ph := range phases {
			total[i] += ph[i]
		}
	}
	sort.Slice(order, func(a, b int) bool { return total[order[a]] < total[order[b]] })
	band := order[n*45/100 : n*55/100+1]
	for k, ph := range phases {
		for _, i := range band {
			out[k] += ph[i]
		}
		out[k] /= float64(len(band))
	}
	return out
}

// printBudget prints the rows, their sum, and the residual against the
// end-to-end figure they should add up to; it returns the residual as a
// percentage of that figure.
func printBudget(w io.Writer, rows []budgetRow, what string, traced, untraced float64) float64 {
	fmt.Fprintf(w, "\nbudget (%s, ms)\n", what)
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %12.4f\n", r.name, r.ms)
		sum += r.ms
	}
	fmt.Fprintf(w, "  %-32s %12.4f\n", "sum of rows", sum)
	fmt.Fprintf(w, "  %-32s %12.4f  residual %+.1f%%\n", "end to end, traced pass", traced, 100*ratio(traced-sum, traced))
	residual := 100 * ratio(untraced-sum, untraced)
	fmt.Fprintf(w, "  %-32s %12.4f  residual %+.1f%%\n", "end to end, untraced pass", untraced, residual)
	return residual
}

// writeTrace writes the spans of a traced run to bench/out/trace-<workload>.json.
func writeTrace(dir string, hdr header, workload string, stride int, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Header   header `json:"header"`
		Workload string `json:"workload"`
		// Stride says which operations were kept: those whose id is a
		// multiple of it.
		Stride int    `json:"op_stride"`
		Spans  []span `json:"spans"`
	}{hdr, workload, stride, spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
