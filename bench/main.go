// Command bench is the repository's benchmark: one single-process driver
// for the three things a user of this system feels — instances decided
// through the cluster engine, appends through the ACS log, cells through the
// sweep engine — over six named workloads. An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) records spans around the
// driver's own calls into each layer and prints the per-layer metrics and a
// budget table whose rows add up to the end-to-end median. Every output is
// verified after the clock stops. See README.md.
//
//	bash bench/run.sh -workload decide.saturate -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -compare bench/baseline/set-a.jsonl bench/baseline/set-b.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// commit is stamped by run.sh (-ldflags -X); a bare `go run` leaves it unset.
var commit = "unknown"

// stallFloor is the least deadline any phase gets, so that a tiny run on a
// loaded machine is not declared stalled.
const stallFloor = 10 * time.Second

// passConfig parameterises one pass of a workload.
type passConfig struct {
	seed    uint64
	seconds float64 // sizes the operation count; see each workload
	traced  bool
	// repeatSetup makes the pass set up several times and report the median
	// (an untraced run); otherwise it sets up once.
	repeatSetup bool
}

// Set-up takes milliseconds on the live workloads, so one sample is mostly
// noise: a pass that repeats it does so at least minSetups times and then
// until a tenth of the run's seconds is spent or maxSetups is reached.
const (
	minSetups = 5
	maxSetups = 25
)

// setupAgain reports whether a pass that has set up done times, starting at
// since, should tear down and set up once more. The last set-up is the one
// the measured run uses.
func (c passConfig) setupAgain(done int, since int64) bool {
	if !c.repeatSetup || done >= maxSetups {
		return false
	}
	return done < minSetups || float64(now()-since) < c.seconds/10*float64(time.Second)
}

// deadline is the stall guard: four times the expected run time. An
// operation still open then is failed, the nodes are shut down, and the
// partial result is printed — the benchmark never hangs on the documented
// FLP stall.
func (c passConfig) deadline() time.Duration {
	d := time.Duration(4 * c.seconds * float64(time.Second))
	if d < stallFloor {
		d = stallFloor
	}
	return d
}

// workload is one named set of inputs.
type workload struct {
	name string
	fam  family
	run  func(passConfig) (*pass, error)
	// budgetOf names the end-to-end figure the budget rows add up to, and
	// total reads it off a pass.
	budgetOf string
	total    func(*pass) float64
}

func medianLatency(p *pass) float64 { return quantile(p.lat, 0.5) }
func wallMs(p *pass) float64        { return p.wall() * 1e3 }

// workloads in the order BENCHMARK.json lists them; the reason for each is
// in BENCHMARK.json and README.md.
var workloads = []workload{
	{"decide.saturate", famDecide, func(c passConfig) (*pass, error) {
		return runDecide(decideSpec{n: 3, k: 1, t: 0, outstanding: 64, opsPerSecond: 40000}, c)
	}, "op_latency_ms", medianLatency},
	{"decide.paced", famDecide, func(c passConfig) (*pass, error) {
		return runDecide(decideSpec{n: 3, k: 1, t: 0, rate: 2000, opsPerSecond: 2000}, c)
	}, "op_latency_ms", medianLatency},
	{"decide.crashed", famDecide, func(c passConfig) (*pass, error) {
		return runDecide(decideSpec{n: 4, k: 2, t: 1, crashed: []int{3}, outstanding: 64, opsPerSecond: 4500}, c)
	}, "op_latency_ms", medianLatency},
	{"acs.append", famACS, runACS, "op_latency_ms", medianLatency},
	{"sweep.mp", famSweep, func(c passConfig) (*pass, error) { return runSweep(sweepMP, c) },
		"wall of the whole run", wallMs},
	{"sweep.sm", famSweep, func(c passConfig) (*pass, error) { return runSweep(sweepSM, c) },
		"wall of the whole run", wallMs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// header is recorded with every result.
type header struct {
	Machine    string  `json:"machine"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Shards     int     `json:"node_shards"` // effective Node.Shards() at the default Shards: 0
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newHeader(seed uint64, seconds float64) header {
	return header{
		Machine:    machine(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
	}
}

// machine names the CPU from /proc/cpuinfo, falling back to GOOS/GOARCH.
func machine() string {
	arch := runtime.GOOS + "/" + runtime.GOARCH
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return arch
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimLeft(name, " \t:")) + " " + arch
		}
	}
	return arch
}

// metricValue is one metric as the contract line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run of one workload: what -out appends (one JSON object per
// line, so a file holds a set of runs) and what -compare reads.
type result struct {
	Header   header `json:"header"`
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	contractLine
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "workload inputs derive from it; the program sees only generated inputs")
	seconds := fs.Float64("seconds", 10, "sizes the run: operation counts are fixed per second of it")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and the budget table")
	out := fs.String("out", "", "append the result to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A B")
			return 2
		}
		return runCompare(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintln(stderr, "  "+w.name)
		}
		return 2
	}
	res, err := execute(stdout, w, newHeader(*seed, *seconds), *trace != 0, "bench/out")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.contractLine)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the workload and prints the report. An untraced run is one
// pass. A traced run is an untraced reference pass and a traced pass, each on
// half the seconds, then the probes: the difference between the two passes
// is the tracing overhead, and the budget is checked against both. The spans
// go to traceDir.
func execute(w io.Writer, wl workload, hdr header, traced bool, traceDir string) (*result, error) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", wl.name, hdr.Seed, hdr.Seconds, traced)
	fmt.Fprintf(w, "machine %s  nproc %d  GOMAXPROCS %d  node shards %d  %s  commit %s\n",
		hdr.Machine, hdr.NProc, hdr.GOMAXPROCS, hdr.Shards, hdr.GoVersion, hdr.Commit)
	res := &result{Header: hdr, Workload: wl.name, Trace: traced}
	res.Metrics = map[string]metricValue{}

	if !traced {
		p, err := wl.run(passConfig{seed: hdr.Seed, seconds: hdr.Seconds, repeatSetup: true})
		if err != nil {
			return nil, err
		}
		res.count(w, p)
		e2e := p.endToEnd()
		fmt.Fprintf(w, "\n%-34s %14s  %s\n", "end-to-end metric", "value", "unit")
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
			fmt.Fprintf(w, "%-34s %14.4f  %s\n", m.Name, e2e[m.Name], m.Unit)
		}
		fmt.Fprintf(w, "verified in %.3f s; failed_share %d/%d\n", p.verify, res.Failed, res.Attempted)
		return res, nil
	}

	// The reference pass repeats set-up as an untraced run does, which also
	// warms the process; the traced pass then sets up once.
	half := passConfig{seed: hdr.Seed, seconds: hdr.Seconds / 2, repeatSetup: true}
	ref, err := wl.run(half)
	if err != nil {
		return nil, err
	}
	res.count(w, ref)
	half.traced, half.repeatSetup = true, false
	p, err := wl.run(half)
	if err != nil {
		return nil, err
	}
	res.count(w, p)
	lv := p.layer
	if wl.fam == famSweep {
		probeSweep(lv)
	} else {
		probeLive(lv)
	}
	probeObs(lv)
	lv.set("driver.samples", float64(p.completed()))
	lv.set("driver.op_p90_ms", quantile(p.lat, 0.9))
	lv.set("driver.verify_s", p.verify)
	lv.set("driver.trace_overhead_pct", 100*ratio(ref.opsPerS()-p.opsPerS(), ref.opsPerS()))
	residual := printBudget(w, p.budget, wl.budgetOf, wl.total(p), wl.total(ref))
	lv.set("driver.budget_residual_pct", residual)

	fmt.Fprintf(w, "\n%-34s %14s  %s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{lv[m.Name], m.Unit}
		if m.in&wl.fam != 0 {
			fmt.Fprintf(w, "%-34s %14.4f  %s\n", m.Name, lv[m.Name], m.Unit)
		}
	}
	refE2E, e2e := ref.endToEnd(), p.endToEnd()
	fmt.Fprintf(w, "\n%-34s %14s %14s  %s\n", "end to end (half-length passes)", "untraced", "traced", "unit")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-34s %14.4f %14.4f  %s\n", m.Name, refE2E[m.Name], e2e[m.Name], m.Unit)
	}
	path, err := writeTrace(traceDir, hdr, wl.name, traceStride(p.attempted), p.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%d spans written to %s; failed_share %d/%d\n", len(p.spans), path, res.Failed, res.Attempted)
	return res, nil
}

// count folds one pass's operations into the result and reports a failure.
func (r *result) count(w io.Writer, p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Correct = r.Failed == 0
	if p.recordHash != 0 {
		fmt.Fprintf(w, "record hash %016x (JSONL of every spec)\n", p.recordHash)
	}
	if p.failure != "" {
		fmt.Fprintf(w, "FAILED %d of %d operations: %s\n", p.failed, p.attempted, p.failure)
	}
}

// appendResult appends one result line to path.
func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
