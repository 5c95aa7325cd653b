package main

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"kset/internal/cluster"
	"kset/internal/grid"
	"kset/internal/sweep"
	"kset/internal/types"
	"kset/internal/wire"
)

// tinySeconds sizes the live workloads for the tests: a few hundred
// instances, a dozen appends.
const tinySeconds = 0.02

// tinyGrid replaces the sweep workloads' grids in the tests; the code path
// (pool, spans, render, verification, probes) is the workload's own.
func tinyGrid(models ...types.Model) func(uint64, int) []grid.Spec {
	return func(seed uint64, runs int) []grid.Spec {
		return []grid.Spec{{Models: models, Validities: sweepValidities,
			Ns: []int{4, 6}, Ks: []int{2, 3}, Ts: []int{1, 2},
			Plans: []grid.FaultPlan{grid.FaultFull, grid.FaultNone}, Trials: 1, Runs: 2 * runs, Seed: seed}}
	}
}

func tinyWorkloads() []workload {
	out := append([]workload(nil), workloads...)
	for i := range out {
		switch out[i].name {
		case "sweep.mp":
			out[i].run = func(c passConfig) (*pass, error) { return runSweep(tinyGrid(types.MPCR, types.MPByz), c) }
		case "sweep.sm":
			out[i].run = func(c passConfig) (*pass, error) { return runSweep(tinyGrid(types.SMCR, types.SMByz), c) }
		}
	}
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool { return strings.Join(a, "\n") == strings.Join(b, "\n") }

// The names the driver emits are the names BENCHMARK.json declares, with the
// same units and directions.
func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	decl, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the driver has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, w.Name, workloads[i].name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the driver has %d", len(decl.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range decl.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json says %v, the driver %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in end_to_end")
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the driver has %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %v, the driver %v", i, m, d)
		}
	}
}

// Every workload, traced, at tiny size: all operations verify, the metrics
// are exactly the declared per-layer set, and the spans are written.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	for _, wl := range tinyWorkloads() {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			var report bytes.Buffer
			res, err := execute(&report, wl, newHeader(7, tinySeconds), true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, report.String())
			}
			if got := keys(res.Metrics); !equal(got, names(perLayer)) {
				t.Errorf("metrics emitted:\n%v\ndeclared:\n%v", got, names(perLayer))
			}
			if res.Metrics["driver.samples"].Value == 0 {
				t.Error("driver.samples is 0")
			}
			if !strings.Contains(report.String(), "sum of rows") {
				t.Errorf("no budget table in the report:\n%s", report.String())
			}
		})
	}
}

// The command line the benchmark contract uses: the last line of standard
// output is the contract object with the end-to-end metrics, none of them 0.
func TestUntracedRunPrintsTheContractLine(t *testing.T) {
	var stdout bytes.Buffer
	code := run([]string{"--workload", "decide.paced", "--seed", "3", "--seconds", "0.02", "--trace", "0"}, &stdout, io.Discard)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Errorf("contract line has keys %v, want correct, attempted, failed, metrics", raw)
	}
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 40 || line.Failed != 0 {
		t.Errorf("line = %+v", line)
	}
	if got := keys(line.Metrics); !equal(got, names(endToEnd)) {
		t.Errorf("metrics %v, want %v", got, names(endToEnd))
	}
	for name, m := range line.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, an end-to-end metric may never read 0", name, m.Value)
		}
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exits 0")
	}
}

// The records' logical counters repeat exactly for one seed and differ for
// another.
func TestSweepCountersRepeatForASeed(t *testing.T) {
	build := tinyGrid(types.MPCR, types.SMCR)
	cfg := passConfig{seed: 5, seconds: 1, traced: true}
	a, err := runSweep(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSweep(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed = 6
	c, err := runSweep(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim.events_per_run", "sim.msgs_per_run"} {
		if a.layer[name] == 0 || a.layer[name] != b.layer[name] {
			t.Errorf("%s: %v then %v for one seed", name, a.layer[name], b.layer[name])
		}
	}
	if a.recordHash == 0 || a.recordHash != b.recordHash {
		t.Errorf("record hash %x then %x for one seed", a.recordHash, b.recordHash)
	}
	if a.recordHash == c.recordHash || a.layer["sim.events_per_run"] == c.layer["sim.events_per_run"] {
		t.Error("another seed gives the same records")
	}
}

// A corrupted table row is caught by the decide verifier.
func TestDecideVerifierCatchesACorruptedRow(t *testing.T) {
	spec := decideSpec{n: 4, k: 2, t: 1, crashed: []int{3}, outstanding: 1}
	tr := newTracker(spec, 9, 2, false)
	for op := 0; op < 2; op++ {
		low := tr.input(op, 0)
		for _, node := range tr.live {
			if v := tr.input(op, node); v < low {
				low = v
			}
		}
		for _, me := range tr.live {
			for _, node := range tr.live {
				tr.observer(me)(uint64(op)+1, types.ProcessID(node), low)
			}
		}
	}
	if failed, reason := tr.verify(0, 2); failed != 0 {
		t.Fatalf("clean tables fail: %s", reason)
	}
	tr.rows[0].Store(int32(1000) + 1) // a value nobody proposed
	failed, reason := tr.verify(0, 2)
	if failed != 1 || !strings.Contains(reason, "instance 1") {
		t.Errorf("failed=%d reason=%q, want instance 1 caught", failed, reason)
	}
}

// A corrupted log entry is caught by the ACS verifier, whether one survivor
// differs or all agree on the wrong value.
func TestACSVerifierCatchesACorruptedEntry(t *testing.T) {
	ops := []*acsOp{
		{value: 11, proposer: 0, round: 1, end: 1},
		{value: 12, proposer: 1, round: 1, end: 1},
		{value: 13, proposer: 2, round: 2, end: 1},
	}
	logs := func() [][]wire.LogEntry {
		out := make([][]wire.LogEntry, 3)
		for i := range out {
			for _, op := range ops {
				out[i] = append(out[i], wire.LogEntry{Round: op.round, Proposer: op.proposer, Value: op.value})
			}
		}
		return out
	}
	if failed, reason := verifyACS(logs(), ops, 0); failed != 0 {
		t.Fatalf("clean logs fail: %s", reason)
	}
	one := logs()
	one[2][1].Value = 99
	if failed, _ := verifyACS(one, ops, 0); failed != len(ops) {
		t.Errorf("a survivor whose log differs fails %d appends, want all %d", failed, len(ops))
	}
	all := logs()
	for i := range all {
		all[i][1].Value = 99
	}
	if failed, reason := verifyACS(all, ops, 0); failed != 1 || !strings.Contains(reason, "append 1") {
		t.Errorf("failed=%d reason=%q, want append 1 caught", failed, reason)
	}
	dup := logs()
	for i := range dup {
		dup[i] = append(dup[i], dup[i][0])
	}
	if failed, _ := verifyACS(dup, ops, 0); failed == 0 {
		t.Error("a value present twice passes")
	}
}

// A corrupted record is caught by the sweep verifier: a violation on a
// solvable cell, and a rendered line that a serial re-run does not produce.
func TestSweepVerifierCatchesACorruptedRecord(t *testing.T) {
	const seed = 4
	fresh := func() *sweepRun {
		r := &sweepRun{specs: tinyGrid(types.MPCR)(seed, 1), workers: 1}
		if err := r.execute(sweep.NewPool(1)); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := fresh()
	if failed, reason := verifySweep(r, seed); failed != 0 {
		t.Fatalf("clean sweep fails: %s", reason)
	}
	for c := range r.recs[0] {
		if r.recs[0][c].Status == "solvable" {
			r.recs[0][c].Violations = 1
			break
		}
	}
	if failed, _ := verifySweep(r, seed); failed != 1 {
		t.Errorf("a violation on a solvable cell fails %d cells, want 1", failed)
	}
	r = fresh()
	line := bytes.SplitAfter(r.jsonl[0].Bytes(), []byte("\n"))[seed%verifySampleEvery]
	line[bytes.IndexByte(line, ':')+2] ^= 1 // flips a character of the sampled cell's line in place
	if failed, reason := verifySweep(r, seed); failed != 1 || !strings.Contains(reason, "serial re-run") {
		t.Errorf("failed=%d reason=%q, want the altered line caught", failed, reason)
	}
}

// The stall guard: FloodMin with t=0 cannot decide once a node is down, so
// the closed loop gives up at its deadline and every operation is failed.
func TestStallGuardFailsOpenInstances(t *testing.T) {
	spec := decideSpec{n: 3, k: 1, t: 0, crashed: []int{2}, outstanding: 4}
	tr := newTracker(spec, 1, 4, false)
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{N: 3, K: 1, T: 0, Seed: 1,
		Attach: func(n *cluster.Node) {
			if tr.slotOf[n.ID()] >= 0 {
				n.SetDecideObserver(tr.observer(int(n.ID())))
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	lb.Crash(2)
	ok, err := tr.closedLoop(lb, 0, 4, 4, 200*time.Millisecond)
	lb.Close()
	if err != nil || ok {
		t.Fatalf("closedLoop = %v, %v; want a stall", ok, err)
	}
	if failed, reason := tr.verify(0, 4); failed != 4 || !strings.Contains(reason, "incomplete") {
		t.Errorf("failed=%d reason=%q, want all 4 incomplete", failed, reason)
	}
}

// quartiles cuts as Python's statistics.quantiles(values, n=4) does, and the
// verdicts follow the bound.
func TestCompareQuartilesAndVerdicts(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, true, "ok"},
		{"slower throughput", []float64{88, 89, 90, 88, 89}, true, "worse"},
		{"faster throughput", []float64{120, 121, 119, 120, 122}, true, "ok"},
		{"higher latency", []float64{112, 113, 111, 112, 114}, false, "worse"},
		{"too noisy to tell", []float64{70, 100, 130, 100, 96}, true, "unresolved"},
		{"noisy but every run better", []float64{150, 200, 250, 300, 180}, true, "ok"},
	} {
		if got := verdict(steady, tc.b, tc.higher, 0.08); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
