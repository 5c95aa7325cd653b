package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"

	"kset/internal/grid"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/types"
)

// sweepRunsPerSecond sizes the sweep workloads: each solvable cell runs
// sweepRunsPerSecond × -seconds randomized adversarial runs (12 at the
// benchmark's 10 s), the grid itself is fixed.
const sweepRunsPerSecond = 1.2

// warmupCellStride: set-up runs every eleventh cell once at Runs=1 (eleven is
// coprime to every axis length, so the sample crosses all of them). That is
// 30-90 ms, short enough to repeat a dozen times or more.
const warmupCellStride = 11

// verifySampleEvery: one cell in eight is re-run serially and its rendered
// line compared byte for byte.
const verifySampleEvery = 8

// The five validity conditions with a solvable region at these sizes (SV1
// is unsolvable for every k < n).
var sweepValidities = []types.Validity{types.SV2, types.RV1, types.RV2, types.WV1, types.WV2}

// sweepMP is two grids back to back, because a spec is a cross product and
// the ℓ-echo cells of mp/byz are cubic in n: mp/cr at n=8,16,24 and mp/byz at
// n=8,10,12. mpnet scheduling and the MP protocols dominate; smmem does not
// execute.
func sweepMP(seed uint64, runs int) []grid.Spec {
	plans := []grid.FaultPlan{grid.FaultFull, grid.FaultNone}
	return []grid.Spec{
		{Models: []types.Model{types.MPCR}, Validities: sweepValidities,
			Ns: []int{8, 16, 24}, Ks: []int{2, 4, 8}, Ts: []int{1, 3, 7},
			Plans: plans, Trials: 1, Runs: runs, Seed: seed},
		{Models: []types.Model{types.MPByz}, Validities: sweepValidities,
			Ns: []int{8, 10, 12}, Ks: []int{2, 4, 8}, Ts: []int{1, 2, 3},
			Plans: plans, Trials: 1, Runs: runs, Seed: seed},
	}
}

// sweepSM is sm/cr and sm/byz at n=16,24: smmem, SIMULATION and Protocols
// E/F dominate, so an mpnet-only optimisation must leave it unchanged.
func sweepSM(seed uint64, runs int) []grid.Spec {
	return []grid.Spec{
		{Models: []types.Model{types.SMCR, types.SMByz}, Validities: sweepValidities,
			Ns: []int{16, 24}, Ks: []int{2, 4, 8}, Ts: []int{1, 3, 7},
			Plans: []grid.FaultPlan{grid.FaultFull, grid.FaultNone}, Trials: 1, Runs: runs, Seed: seed},
	}
}

// sweepRun is the output of one timed sweep: per spec the records, each
// cell's start and busy time, and the rendered bytes.
type sweepRun struct {
	specs   []grid.Spec
	workers int
	recs    [][]grid.Record
	start   [][]int64
	busy    [][]int64
	jsonl   []bytes.Buffer
	csv     []bytes.Buffer
	from    int64 // when the timed run began
	runNs   int64 // Spec.Run over every spec
	jsonlNs int64
	csvNs   int64
}

// hash folds the rendered JSONL of every spec: the record identity that must
// repeat exactly for one seed.
func (r *sweepRun) hash() uint64 {
	h := fnv.New64a()
	for i := range r.jsonl {
		_, _ = h.Write(r.jsonl[i].Bytes())
	}
	return h.Sum64()
}

// execute runs every spec through the pool with a span around each
// Spec.RunCell, then renders JSONL and CSV.
func (r *sweepRun) execute(pool *sweep.Pool) error {
	n := len(r.specs)
	r.recs, r.start, r.busy = make([][]grid.Record, n), make([][]int64, n), make([][]int64, n)
	r.jsonl, r.csv = make([]bytes.Buffer, n), make([]bytes.Buffer, n)
	t0 := now()
	r.from = t0
	for i := range r.specs {
		cells := int(r.specs[i].NumCells())
		start, busy := make([]int64, cells), make([]int64, cells)
		r.recs[i] = r.specs[i].Run(func(jobs int, run func(job int)) {
			pool.Map(jobs, func(job int) {
				start[job] = now()
				run(job)
				busy[job] = now() - start[job]
			})
		})
		r.start[i], r.busy[i] = start, busy
	}
	t1 := now()
	for i := range r.specs {
		if err := grid.WriteJSONL(&r.jsonl[i], r.recs[i]); err != nil {
			return err
		}
	}
	t2 := now()
	for i := range r.specs {
		if err := grid.WriteCSV(&r.csv[i], r.recs[i]); err != nil {
			return err
		}
	}
	r.runNs, r.jsonlNs, r.csvNs = t1-t0, t2-t1, now()-t2
	return nil
}

// verifySweep requires zero violations and run errors on solvable cells and,
// for one cell in verifySampleEvery, the rendered JSONL line byte-equal to a
// serial Spec.RunCell re-run of that cell. It returns the number of failing
// cells.
func verifySweep(r *sweepRun, seed uint64) (failed int, reason string) {
	miss := func(spec int, cell int, why string) {
		failed++
		if reason == "" {
			reason = fmt.Sprintf("spec %d cell %d: %s", spec, cell, why)
		}
	}
	for i := range r.specs {
		lines := bytes.SplitAfter(r.jsonl[i].Bytes(), []byte("\n"))
		for c, rec := range r.recs[i] {
			switch {
			case rec.Status == theory.Solvable.String() && (rec.Violations != 0 || rec.RunErrors != 0):
				miss(i, c, fmt.Sprintf("%d violations, %d run errors: %s", rec.Violations, rec.RunErrors, rec.FirstViolation))
			case uint64(c)%verifySampleEvery == seed%verifySampleEvery:
				var want bytes.Buffer
				again := r.specs[i].RunCell(uint64(c))
				if err := grid.WriteJSONL(&want, []grid.Record{again}); err != nil {
					miss(i, c, err.Error())
				} else if c >= len(lines) || !bytes.Equal(lines[c], want.Bytes()) {
					miss(i, c, "rendered line differs from a serial re-run")
				}
			}
		}
	}
	return failed, reason
}

// runSweep is one pass of a sweep.* workload.
func runSweep(build func(seed uint64, runs int) []grid.Spec, cfg passConfig) (*pass, error) {
	runs := int(math.Round(sweepRunsPerSecond * cfg.seconds))
	if runs < 1 {
		runs = 1
	}
	p := &pass{layer: layerValues{}, batch: true}
	var pool *sweep.Pool
	var r *sweepRun
	for since := now(); len(p.setups) == 0 || cfg.setupAgain(len(p.setups), since); {
		t0 := now()
		r = &sweepRun{specs: build(cfg.seed, runs), workers: runtime.NumCPU()}
		pool = sweep.NewPool(r.workers)
		for s := range r.specs {
			if err := r.specs[s].Validate(); err != nil {
				return nil, err
			}
			// The warm-up is part of set-up, not of the workload's inputs: its
			// seed is fixed, or set-up time would follow which cells a seed
			// makes heavy.
			warm := r.specs[s]
			warm.Runs, warm.Seed = 1, 1
			pool.Map(int(warm.NumCells())/warmupCellStride, func(job int) {
				warm.RunCell(uint64(job * warmupCellStride))
			})
		}
		p.setups = append(p.setups, secondsSince(t0))
	}
	for s := range r.specs {
		p.attempted += int(r.specs[s].NumCells())
	}

	var meter *procMeter
	if cfg.traced {
		meter = startProcMeter(nil)
	}
	if err := r.execute(pool); err != nil {
		return nil, err
	}
	p.runFrom, p.runTo = r.from, r.from+r.runNs+r.jsonlNs+r.csvNs
	if cfg.traced {
		meter.finish(p.layer, p.attempted)
	}
	// Every cell is due when the sweep starts, so a cell's latency is the
	// time from there to its completion, its wait for a worker included.
	for s := range r.busy {
		for c, b := range r.busy[s] {
			p.lat = append(p.lat, ms(r.start[s][c]+b-r.from))
		}
	}
	p.recordHash = r.hash()
	tv := now()
	failed, reason := verifySweep(r, cfg.seed)
	p.verify = secondsSince(tv)
	p.fail(failed, reason)
	if cfg.traced {
		sweepLayers(p, r)
	}
	return p, nil
}

// sweepLayers derives the grid/sim/sweep metrics, the spans and the budget
// of a traced pass. The budget splits the run's wall time: cell execution
// spread over the workers, the workers' idle time, and the two renders.
func sweepLayers(p *pass, r *sweepRun) {
	byModel := map[string][]float64{}
	var unsolvable []float64
	var busySum, solvableBusy, events, messages, runsTotal int64
	slowest := 0.0
	cell := 0
	stride := traceStride(p.attempted)
	for s := range r.recs {
		for c, rec := range r.recs[s] {
			b := r.busy[s][c]
			busySum += b
			if ms(b) > slowest {
				slowest = ms(b)
			}
			if rec.Status == theory.Solvable.String() {
				byModel[rec.Model] = append(byModel[rec.Model], ms(b))
				solvableBusy += b
				events += rec.Events
				messages += rec.Messages
				runsTotal += int64(rec.Runs)
			} else {
				unsolvable = append(unsolvable, float64(b)/1e3)
			}
			if cell%stride == 0 {
				p.spans = append(p.spans, span{"grid.RunCell", cell, "", r.start[s][c], r.start[s][c] + b})
			}
			cell++
		}
	}
	for _, m := range types.AllModels() {
		// "MP/CR" -> grid.cell_ms_p50.mp_cr
		suffix := strings.ToLower(strings.ReplaceAll(m.String(), "/", "_"))
		p.layer.set("grid.cell_ms_p50."+suffix, median(byModel[m.String()]))
	}
	cells := float64(p.attempted)
	p.layer.set("grid.cell_ms_max", slowest)
	p.layer.set("grid.unsolvable_cell_us_p50", median(unsolvable))
	p.layer.set("runs_per_s", ratio(float64(runsTotal), p.wall()))
	p.layer.set("sim.ns_per_event", ratio(float64(solvableBusy), float64(events)))
	p.layer.set("sim.events_per_run", ratio(float64(events), float64(runsTotal)))
	p.layer.set("sim.msgs_per_run", ratio(float64(messages), float64(runsTotal)))
	p.layer.set("grid.render_jsonl_ns_per_rec", ratio(float64(r.jsonlNs), cells))
	p.layer.set("grid.render_csv_ns_per_rec", ratio(float64(r.csvNs), cells))
	perWorker := float64(busySum) / float64(r.workers)
	p.layer.set("sweep.pool_utilization", ratio(perWorker, float64(r.runNs)))

	classifyNs := probeClassify()
	classify := classifyNs * cells / float64(r.workers)
	p.layer.set("theory.classify_ns", classifyNs)
	p.budget = append(p.budget,
		budgetRow{"theory.classify (probe x cells / workers)", classify / 1e6},
		budgetRow{"grid.RunCell self (busy / workers)", (perWorker - classify) / 1e6},
		budgetRow{"sweep pool idle", (float64(r.runNs) - perWorker) / 1e6},
		budgetRow{"grid.WriteJSONL", ms(r.jsonlNs)},
		budgetRow{"grid.WriteCSV", ms(r.csvNs)})
}
