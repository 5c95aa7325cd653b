package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json, the declaration the driver is checked
// against: -compare takes its bounds from it and bench_test.go holds the
// driver's names to it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readResults reads a -out file into the untraced results per workload.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the driver that accepts the benchmark computes. One value is its own
// quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict compares set B to set A on one metric. worse: B's median is worse
// than A's by more than the bound. unresolved: it is not, but either set's
// spread (interquartile range over median) exceeds the bound, and B's runs
// do not all read better than A's — the sets cannot tell.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worseBy := ratio(mb-ma, ma)
	if higherBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return "worse"
	}
	if spread(a) <= bound && spread(b) <= bound {
		return "ok"
	}
	for _, x := range a {
		for _, y := range b {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				return "unresolved"
			}
		}
	}
	return "ok"
}

func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, q2)
}

// runCompare prints one row per workload × end-to-end metric: both medians
// with their quartiles, the bound from BENCHMARK.json, and the verdict. It
// exits 1 if any row is worse.
func runCompare(stdout, stderr io.Writer, pathA, pathB string) int {
	decl, err := readBenchmarkFile("BENCHMARK.json")
	if err == nil && len(decl.EndToEnd) == 0 {
		err = fmt.Errorf("BENCHMARK.json declares no end-to-end metric")
	}
	var setA, setB map[string][]result
	if err == nil {
		setA, err = readResults(pathA)
	}
	if err == nil {
		setB, err = readResults(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-16s %-13s %5s %12s %23s %12s %23s %8s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A quartiles", "B median", "B quartiles", "B vs A", "bound", "verdict")
	exit := 0
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			var a, b []float64
			for _, r := range setA[w.Name] {
				a = append(a, r.Metrics[m.Name].Value)
			}
			for _, r := range setB[w.Name] {
				b = append(b, r.Metrics[m.Name].Value)
			}
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stdout, "%-16s %-13s %5s  no runs in one of the sets\n", w.Name, m.Name, "-")
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			v := verdict(a, b, m.Better == "higher", m.Bound)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(stdout, "%-16s %-13s %2d/%-2d %12.4f %23s %12.4f %23s %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, len(a), len(b),
				a2, fmt.Sprintf("[%.4f, %.4f]", a1, a3),
				b2, fmt.Sprintf("[%.4f, %.4f]", b1, b3),
				100*ratio(b2-a2, a2), 100*m.Bound, v)
		}
	}
	return exit
}
