// Package report runs the reproduction's full evaluation — region grids,
// empirical validation sweeps, impossibility constructions, the halting
// experiment, and agreement-tightness statistics — and renders the results
// as a markdown report in the structure of EXPERIMENTS.md. It is the
// one-shot reproducibility entry point behind cmd/ksetreport.
package report

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"kset/internal/adversary"
	"kset/internal/checker"
	"kset/internal/exhaustive"
	"kset/internal/grid"
	"kset/internal/harness"
	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/theory"
	"kset/internal/types"
)

// Config sizes the evaluation.
type Config struct {
	// N is the system size for empirical sweeps (grids are additionally
	// computed at the paper's 64).
	N int
	// Runs is the sweep size per sampled cell.
	Runs int
	// Samples is the number of solvable cells sampled per panel.
	Samples int
	// Seed drives the sampling and sweeps.
	Seed uint64
	// GridN is the size for the region-count tables (default 64).
	GridN int
	// Workers is the worker-thread count for sweeps and grid passes
	// (0 = GOMAXPROCS, 1 = serial). The report is byte-identical for every
	// worker count: all jobs are planned and rendered in canonical order.
	Workers int
}

func (c *Config) defaults() {
	if c.N == 0 {
		c.N = 10
	}
	if c.Runs == 0 {
		c.Runs = 16
	}
	if c.Samples == 0 {
		c.Samples = 3
	}
	if c.GridN == 0 {
		c.GridN = 64
	}
}

// Run executes the evaluation and writes the markdown report.
func Run(w io.Writer, cfg Config) error {
	cfg.defaults()
	exec := grid.FanOut(cfg.Workers)
	fmt.Fprintf(w, "# k-set consensus reproduction report\n\n")
	fmt.Fprintf(w, "Parameters: sweeps at n=%d (%d runs x %d cells per panel), region tables at n=%d, seed %d.\n\n",
		cfg.N, cfg.Runs, cfg.Samples, cfg.GridN, cfg.Seed)
	fmt.Fprintf(w, "Every violation reported below can be captured as a replayable `.ktr` trace\nartifact and minimized with `ksetreplay -shrink`; see `docs/replay.md`.\n\n")

	writeLattice(w)
	writeGridTables(w, cfg.GridN, exec)
	if err := writeValidation(w, cfg, exec); err != nil {
		return err
	}
	if err := writeConstructions(w, cfg.N, exec); err != nil {
		return err
	}
	writeHalting(w, cfg, exec)
	writeTightness(w, cfg, exec)
	if err := writeExhaustive(w, exec); err != nil {
		return err
	}
	if err := writeGapProbes(w, exec); err != nil {
		return err
	}
	writeLatency(w, cfg, exec)
	return nil
}

func writeLattice(w io.Writer) {
	fmt.Fprintf(w, "## Figure 1: validity lattice\n\n")
	edges := theory.WeakerEdges()
	for _, d := range types.AllValidities() {
		for _, c := range edges[d] {
			fmt.Fprintf(w, "- %s implies %s\n", d, c)
		}
	}
	fmt.Fprintln(w)
}

func writeGridTables(w io.Writer, n int, exec harness.Executor) {
	fmt.Fprintf(w, "## Figures 2/4/5/6: region cell counts at n=%d\n\n", n)
	// One classifier pass per figure covers all six panels; the four figures
	// are independent jobs.
	figures := theory.Figures()
	grids := make([][]*theory.Grid, len(figures))
	exec.Run(len(figures), func(j int) {
		grids[j] = theory.ComputeFigure(figures[j].Model, n)
	})
	for j, f := range figures {
		fmt.Fprintf(w, "### Figure %d (%s)\n\n", f.Number, f.Model)
		fmt.Fprintf(w, "| panel | solvable | impossible | open |\n|---|---|---|---|\n")
		for _, g := range grids[j] {
			s, i, o := g.Count()
			fmt.Fprintf(w, "| %s | %d | %d | %d |\n", g.Validity, s, i, o)
		}
		fmt.Fprintln(w)
	}
}

func writeValidation(w io.Writer, cfg Config, exec harness.Executor) error {
	fmt.Fprintf(w, "## Empirical validation of solvable cells (n=%d)\n\n", cfg.N)
	fmt.Fprintf(w, "| panel | cell | witness | runs | outcome |\n|---|---|---|---|---|\n")
	failures := 0
	for _, f := range theory.Figures() {
		panels := theory.ComputeFigure(f.Model, cfg.N)
		checks := grid.ValidatePanels(panels, func(g *theory.Grid) uint64 {
			return cfg.Seed + uint64(f.Number)*100 + uint64(g.Validity)
		}, cfg.Samples, cfg.Runs, exec)
		for i, g := range panels {
			for _, c := range checks[i] {
				if c.Err != nil {
					return c.Err
				}
				outcome := "all conditions held"
				if !c.Sum.OK() {
					outcome = fmt.Sprintf("FAILED: %v", c.Sum.Violations[0].Err)
					failures++
				}
				fmt.Fprintf(w, "| %s/%s | k=%d t=%d | %s | %d | %s |\n",
					g.Model, g.Validity, c.Cell.K, c.Cell.T, g.At(c.Cell.K, c.Cell.T).Protocol, c.Sum.Runs, outcome)
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "\n**%d cell validations FAILED.**\n\n", failures)
	} else {
		fmt.Fprintf(w, "\nAll sampled cells validated.\n\n")
	}
	return nil
}

func writeConstructions(w io.Writer, n int, exec harness.Executor) error {
	fmt.Fprintf(w, "## Impossibility constructions (n=%d)\n\n", n)
	fmt.Fprintf(w, "| construction | lemma | expected | exhibited |\n|---|---|---|---|\n")
	// Builders that decline the representative point are left out.
	reps := adversary.Representatives(n)
	exec.Run(len(reps), func(j int) { reps[j].Run() })
	for _, r := range reps {
		c := r.Cons
		switch {
		case c == nil:
		case r.RunErr != nil:
			return r.RunErr
		case r.Out == nil:
			fmt.Fprintf(w, "| %s | %s | %s | NO VIOLATION |\n", c.Name, c.Lemma, c.Expect)
		default:
			fmt.Fprintf(w, "| %s | %s | %s | %d distinct decisions / %v |\n",
				c.Name, c.Lemma, c.Expect, len(r.Out.Record.CorrectDecisions()), condition(r.Out.Violation))
		}
	}
	fmt.Fprintln(w)
	return nil
}

func condition(violation error) string {
	var v *checker.Violation
	if errors.As(violation, &v) {
		return v.Condition + " violated"
	}
	return violation.Error()
}

func writeHalting(w io.Writer, cfg Config, exec harness.Executor) {
	fmt.Fprintf(w, "## Terminating-protocol experiment (the paper's open problem)\n\n")
	fmt.Fprintf(w, "| protocol | helping | halting after decide |\n|---|---|---|\n")
	n := cfg.N
	uniform := make([]types.Value, n)
	for i := range uniform {
		uniform[i] = 4
	}
	distinct := make([]types.Value, n)
	for i := range distinct {
		distinct[i] = types.Value(i + 1)
	}
	trials := []struct {
		name    string
		k, t    int
		inputs  []types.Value
		sched   mpnet.Scheduler
		factory func() mpnet.Protocol
	}{
		{"FloodMin", 3, 2, distinct, nil, func() mpnet.Protocol { return mp.NewFloodMin() }},
		{"Protocol A", 2, 3, uniform, nil, func() mpnet.Protocol { return mp.NewProtocolA() }},
		{"Protocol C(1)", 3, 1, uniform,
			mpnet.NewDelayProcess(n, types.ProcessID(n-1)),
			func() mpnet.Protocol { return mp.NewProtocolC(1) }},
		{"Protocol D", 3, 2, distinct, nil, func() mpnet.Protocol { return mp.NewProtocolD() }},
	}
	verdictFor := func(factory func() mpnet.Protocol, k, t int,
		inputs []types.Value, sched mpnet.Scheduler, halt bool) string {
		rec, err := mpnet.Run(mpnet.Config{
			N: n, T: t, K: k,
			Inputs:       inputs,
			NewProtocol:  func(types.ProcessID) mpnet.Protocol { return factory() },
			Scheduler:    sched,
			Seed:         5,
			HaltOnDecide: halt,
		})
		if err != nil {
			return "error: " + err.Error()
		}
		if checker.CheckTermination(rec) != nil {
			return "wedges"
		}
		return "terminates"
	}
	// Each (trial, halting-mode) run is independent; DelayProcess schedulers
	// are read-only after construction, so trials can share one safely.
	verdicts := make([]string, len(trials)*2)
	exec.Run(len(verdicts), func(j int) {
		tr := trials[j/2]
		verdicts[j] = verdictFor(tr.factory, tr.k, tr.t, tr.inputs, tr.sched, j%2 == 1)
	})
	for i, tr := range trials {
		fmt.Fprintf(w, "| %s | %s | %s |\n", tr.name, verdicts[2*i], verdicts[2*i+1])
	}
	fmt.Fprintln(w)
}

// writeExhaustive re-derives the one-shot protocols' region boundaries by
// exhaustive small-scope verification (every input pattern, faulty set and
// arrival subset at n=5).
func writeExhaustive(w io.Writer, exec harness.Executor) error {
	fmt.Fprintf(w, "## Exhaustive small-scope rederivation (n=5, all adversaries)\n\n")
	fmt.Fprintf(w, "| protocol | condition | boundary re-derived | cells checked |\n|---|---|---|---|\n")
	const n = 5
	rules := []struct {
		proto    theory.ProtocolID
		validity types.Validity
		region   func(k, t int) bool
		formula  string
	}{
		{theory.ProtoFloodMin, types.RV1,
			func(k, t int) bool { return t < k }, "t < k"},
		{theory.ProtoA, types.RV2,
			func(k, t int) bool { return theory.ProtocolARegion(n, k, t) }, "kt < (k-1)n"},
		{theory.ProtoB, types.SV2,
			func(k, t int) bool { return theory.ProtocolBRegion(n, k, t) }, "2kt < (k-1)n"},
	}
	// Every (protocol, k, t) cell is an independent exhaustive check.
	cells := (n - 2) * (n - 1)
	matches := make([]bool, len(rules)*cells)
	errs := make([]error, len(matches))
	exec.Run(len(matches), func(j int) {
		r, k, t := rules[j/cells], 2+(j%cells)/(n-1), 1+(j%cells)%(n-1)
		verdict, err := exhaustive.Verify(r.proto, r.validity, n, k, t, 0)
		matches[j], errs[j] = verdict.Holds == r.region(k, t), err
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for ri, r := range rules {
		verdictStr := "EXACT: " + r.formula
		if slices.Contains(matches[ri*cells:(ri+1)*cells], false) {
			verdictStr = "MISMATCH vs " + r.formula
		}
		fmt.Fprintf(w, "| %s | %s | %s | %d |\n", r.proto, r.validity, verdictStr, cells)
	}
	fmt.Fprintln(w)
	return nil
}

// writeGapProbes enumerates the open cells the paper leaves between
// Protocol B's region (Lemma 3.8) and the SV2 impossibility (Lemma 3.6) at
// a small n, and reports the exhaustive verdict for Protocol B at each:
// B fails throughout the gap, so the gap is open only for OTHER protocols.
func writeGapProbes(w io.Writer, exec harness.Executor) error {
	const n = 6 // exhaustive cost grows with the C(n+k+1, n) sorted vectors: keep small
	fmt.Fprintf(w, "## Open-gap probes: MP/CR SV2 at n=%d\n\n", n)
	fmt.Fprintf(w, "| cell | paper status | Protocol B (exhaustive) |\n|---|---|---|\n")
	var open []theory.CellPoint
	for k := 2; k <= n-1; k++ {
		for t := 1; t <= n-1; t++ {
			if theory.Classify(types.MPCR, types.SV2, n, k, t).Status == theory.Open {
				open = append(open, theory.CellPoint{K: k, T: t})
			}
		}
	}
	verdicts := make([]exhaustive.Verdict, len(open))
	errs := make([]error, len(open))
	exec.Run(len(open), func(j int) {
		verdicts[j], errs[j] = exhaustive.Verify(theory.ProtoB, types.SV2, n, open[j].K, open[j].T, 0)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for j, c := range open {
		outcome := "fails — gap open for other protocols"
		if verdicts[j].Holds {
			outcome = "HOLDS — candidate to close the gap"
		}
		fmt.Fprintf(w, "| k=%d t=%d | open | %s |\n", c.K, c.T, outcome)
	}
	fmt.Fprintln(w)
	return nil
}

// writeLatency profiles decision latency (global delivery events until the
// first and last correct decision) for each message-passing protocol on a
// failure-free distinct-input workload.
func writeLatency(w io.Writer, cfg Config, exec harness.Executor) {
	fmt.Fprintf(w, "## Decision latency profile (failure-free, n=%d, delivery events)\n\n", cfg.N)
	fmt.Fprintf(w, "| protocol | first decision | last decision | messages |\n|---|---|---|---|\n")
	n := cfg.N
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = types.Value(i + 1)
	}
	uniform := make([]types.Value, n)
	for i := range uniform {
		uniform[i] = 3
	}
	trials := []struct {
		name    string
		k, t    int
		inputs  []types.Value
		factory func() mpnet.Protocol
	}{
		{"FloodMin", n / 2, n/2 - 1, inputs, func() mpnet.Protocol { return mp.NewFloodMin() }},
		{"Protocol A", 2, (n - 1) / 3, uniform, func() mpnet.Protocol { return mp.NewProtocolA() }},
		{"Protocol B", n - 1, n / 8, uniform, func() mpnet.Protocol { return mp.NewProtocolB() }},
		{"Protocol C(1)", n - 1, (n - 1) / 4, uniform, func() mpnet.Protocol { return mp.NewProtocolC(1) }},
		{"Protocol D", n - 1, (n - 1) / 4, inputs, func() mpnet.Protocol { return mp.NewProtocolD() }},
	}
	type latJob struct {
		idx int // trial index
		rec *types.RunRecord
		err error
	}
	var jobs []latJob
	for i, tr := range trials {
		if tr.k < 2 || tr.k > n-1 || tr.t < 1 {
			continue
		}
		jobs = append(jobs, latJob{idx: i})
	}
	exec.Run(len(jobs), func(j int) {
		tr := trials[jobs[j].idx]
		jobs[j].rec, jobs[j].err = mpnet.Run(mpnet.Config{
			N: n, T: tr.t, K: tr.k,
			Inputs:      tr.inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return tr.factory() },
			Seed:        cfg.Seed + 7,
		})
	})
	for j := range jobs {
		tr, rec := trials[jobs[j].idx], jobs[j].rec
		if jobs[j].err != nil {
			fmt.Fprintf(w, "| %s | error: %v | | |\n", tr.name, jobs[j].err)
			continue
		}
		lats, ok := rec.DecisionLatencies()
		if !ok || len(lats) == 0 {
			fmt.Fprintf(w, "| %s | (no decisions) | | %d |\n", tr.name, rec.Messages)
			continue
		}
		fmt.Fprintf(w, "| %s (k=%d t=%d) | %d | %d | %d |\n",
			tr.name, tr.k, tr.t, lats[0], lats[len(lats)-1], rec.Messages)
	}
	fmt.Fprintln(w)
}

func writeTightness(w io.Writer, cfg Config, exec harness.Executor) {
	fmt.Fprintf(w, "## Agreement tightness in typical adversarial runs (n=%d)\n\n", cfg.N)
	fmt.Fprintf(w, "| protocol | bound k | max distinct observed | mean distinct | default decisions |\n|---|---|---|---|---|\n")
	n := cfg.N
	trials := []struct {
		name    string
		k, t    int
		v       types.Validity
		factory func() mpnet.Protocol
	}{
		{"FloodMin", n/2 + 1, n / 2, types.RV1, func() mpnet.Protocol { return mp.NewFloodMin() }},
		{"Protocol A", 3, (2*n - 1) / 3, types.RV2, func() mpnet.Protocol { return mp.NewProtocolA() }},
		{"Protocol B", n - 2, n/4 + 1, types.SV2, func() mpnet.Protocol { return mp.NewProtocolB() }},
	}
	// The trials are independent sweeps: they fan out, each running its
	// runs serially, and render in trial order.
	sums := make([]*harness.Summary, len(trials))
	exec.Run(len(trials), func(j int) {
		tr := trials[j]
		if !validPoint(n, tr.k, tr.t) {
			return
		}
		s := &harness.MPSweep{
			Name: tr.name, N: n, K: tr.k, T: tr.t,
			Validity:    tr.v,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return tr.factory() },
			Runs:        cfg.Runs * 4,
			BaseSeed:    cfg.Seed + 99,
		}
		sums[j] = s.Execute()
	})
	for j, tr := range trials {
		if sum := sums[j]; sum != nil {
			fmt.Fprintf(w, "| %s (t=%d) | %d | %d | %.2f | %d |\n",
				tr.name, tr.t, tr.k, sum.MaxDistinct(), sum.MeanDistinct(), sum.DefaultDecisions)
		}
	}
	fmt.Fprintln(w)
}

func validPoint(n, k, t int) bool {
	return k >= 2 && k <= n-1 && t >= 1 && t <= n
}
