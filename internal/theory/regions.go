package theory

import (
	"fmt"

	"kset/internal/types"
)

// Grid is the classification of every point of one figure panel: one model,
// one validity condition, all k in [2, n-1] and t in [1, n].
type Grid struct {
	Model    types.Model
	Validity types.Validity
	N        int
	// Cells[ti][ki] classifies k = ki+2, t = ti+1.
	Cells [][]Result
}

// KMin, KMax, TMin and TMax describe the axis ranges of a grid.
func (g *Grid) KMin() int { return 2 }

// KMax returns the largest k on the grid (n-1).
func (g *Grid) KMax() int { return g.N - 1 }

// TMin returns the smallest t on the grid (1).
func (g *Grid) TMin() int { return 1 }

// TMax returns the largest t on the grid (n).
func (g *Grid) TMax() int { return g.N }

// At returns the classification of point (k, t).
func (g *Grid) At(k, t int) Result { return g.Cells[t-1][k-2] }

// CheckFigureN refuses a figure size with no cell: k runs over [2, n-1],
// so a panel needs n >= 3. ComputeGrid and ComputeFigure do not check it.
func CheckFigureN(n int) error {
	if n < 3 {
		return fmt.Errorf("n = %d: a figure panel needs n >= 3 (k runs over [2, n-1])", n)
	}
	return nil
}

// ComputeGrid classifies every point of one panel of Figures 2/4/5/6.
func ComputeGrid(m types.Model, v types.Validity, n int) *Grid {
	g := newGrid(m, v, n)
	for t := 1; t <= n; t++ {
		row := g.Cells[t-1]
		for k := 2; k <= n-1; k++ {
			row[k-2] = Classify(m, v, n, k, t)
		}
	}
	return g
}

// newGrid allocates a grid with all rows carved out of one flat backing
// slice: two allocations instead of n+1, which dominates the figure-bench
// allocation counts at the paper's n = 64.
func newGrid(m types.Model, v types.Validity, n int) *Grid {
	g := &Grid{Model: m, Validity: v, N: n}
	g.Cells = make([][]Result, n)
	width := n - 2
	flat := make([]Result, n*width)
	for t := 0; t < n; t++ {
		g.Cells[t] = flat[t*width : (t+1)*width : (t+1)*width]
	}
	return g
}

// SolvableCells returns the (k, t) points of every solvable cell in row-major
// (k, then t) order, preallocated from the panel's solvable count. This is
// the canonical job list for empirical validation sweeps.
func (g *Grid) SolvableCells() []CellPoint {
	s, _, _ := g.Count()
	cells := make([]CellPoint, 0, s)
	for k := g.KMin(); k <= g.KMax(); k++ {
		for t := g.TMin(); t <= g.TMax(); t++ {
			if g.At(k, t).Status == Solvable {
				cells = append(cells, CellPoint{K: k, T: t})
			}
		}
	}
	return cells
}

// CellPoint is one (k, t) coordinate of a grid.
type CellPoint struct{ K, T int }

// Count returns the number of cells with each status.
func (g *Grid) Count() (solvable, impossible, openCells int) {
	for _, row := range g.Cells {
		for _, r := range row {
			switch r.Status {
			case Solvable:
				solvable++
			case Impossible:
				impossible++
			case Open:
				openCells++
			}
		}
	}
	return solvable, impossible, openCells
}

// Figure describes one of the paper's region figures: a model plus its
// figure number in the paper.
type Figure struct {
	Number int
	Model  types.Model
}

// Figures lists the four region figures of the paper in order.
func Figures() []Figure {
	return []Figure{
		{Number: 2, Model: types.MPCR},
		{Number: 4, Model: types.MPByz},
		{Number: 5, Model: types.SMCR},
		{Number: 6, Model: types.SMByz},
	}
}

// FigureForModel returns the paper figure number for a model's region chart.
func FigureForModel(m types.Model) (int, error) {
	for _, f := range Figures() {
		if f.Model == m {
			return f.Number, nil
		}
	}
	return 0, fmt.Errorf("%w: %v", types.ErrUnknownModel, m)
}

// ComputeFigure computes all six panels of one region figure at size n
// (the paper draws them for n = 64), in the paper's validity order. The six
// panels share one classifier pass over the (k, t) plane: per-point work that
// is validity-independent (the Section 2 boundary cases, the BestEchoEll
// scan consulted by up to three panels) is computed once per point instead
// of once per panel.
func ComputeFigure(m types.Model, n int) []*Grid {
	vs := types.AllValidities()
	grids := make([]*Grid, len(vs))
	for i, v := range vs {
		grids[i] = newGrid(m, v, n)
	}
	out := make([]Result, len(vs))
	for t := 1; t <= n; t++ {
		for k := 2; k <= n-1; k++ {
			classifyAll(m, n, k, t, out)
			for i := range grids {
				grids[i].Cells[t-1][k-2] = out[i]
			}
		}
	}
	return grids
}
