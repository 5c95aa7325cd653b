package grid

import (
	"kset/internal/harness"
	"kset/internal/prng"
	"kset/internal/theory"
)

// SampledCell is one solvable cell drawn from a classified panel, paired with
// the sweep seed the draw assigned it.
type SampledCell struct {
	Cell theory.CellPoint
	Seed uint64
}

// SamplePanel draws up to samples solvable cells from one classified panel,
// each with its own sweep seed, in a deterministic order: a permutation of
// the panel's solvable cells followed by one seed draw per sample, all from a
// PRNG seeded with rngSeed. ksetverify and ksetreport both sample panels
// through this function, so their validation targets come from one
// vocabulary.
func SamplePanel(g *theory.Grid, samples int, rngSeed uint64) []SampledCell {
	cells := g.SolvableCells()
	if samples > len(cells) {
		samples = len(cells)
	}
	if samples <= 0 {
		return nil
	}
	rng := prng.New(rngSeed)
	out := make([]SampledCell, 0, samples)
	for _, idx := range rng.Perm(len(cells))[:samples] {
		out = append(out, SampledCell{Cell: cells[idx], Seed: rng.Uint64()})
	}
	return out
}

// CellCheck is one sampled cell with the outcome of its validation sweep.
type CellCheck struct {
	SampledCell
	Sum *harness.Summary
	Err error
}

// ValidatePanels samples up to samples solvable cells from every panel (the
// draw seeded with rngSeed(panel)) and validates each sampled cell's witness
// with runs randomized runs. Every cell is planned first, in panel order;
// the cells fan out through exec, and each cell's runs run one after another
// on the arena it takes; checks[i] holds panels[i]'s cells in draw order, so
// the result is identical for any executor. ksetverify and ksetreport both
// validate through it, each with its own seed formula and renderer.
func ValidatePanels(panels []*theory.Grid, rngSeed func(*theory.Grid) uint64, samples, runs int, exec harness.Executor) [][]CellCheck {
	type job struct {
		g *theory.Grid
		c *CellCheck
	}
	var jobs []job
	checks := make([][]CellCheck, len(panels))
	for i, g := range panels {
		sampled := SamplePanel(g, samples, rngSeed(g))
		checks[i] = make([]CellCheck, len(sampled))
		for j, sc := range sampled {
			checks[i][j].SampledCell = sc
			jobs = append(jobs, job{g, &checks[i][j]})
		}
	}
	exec.Run(len(jobs), func(j int) {
		g, c := jobs[j].g, jobs[j].c
		a := arenas.Get()
		k, t := c.Cell.K, c.Cell.T
		c.Sum, c.Err = a.ValidateCell(g.Model, g.Validity, g.N, k, t, g.At(k, t),
			harness.CellOpts{Runs: runs, Seed: c.Seed})
		arenas.Put(a)
	})
	return checks
}
