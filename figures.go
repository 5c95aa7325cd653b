package kset

import (
	"io"

	"kset/internal/ascii"
	"kset/internal/theory"
)

// Grid is one rendered panel's underlying classification grid.
type Grid = theory.Grid

// ComputeGrid classifies every point of one figure panel: all k in [2, n-1]
// and t in [1, n] for one model and validity condition. It refuses n < 3,
// where a panel has no cell.
func ComputeGrid(m Model, v Validity, n int) (*Grid, error) {
	if err := theory.CheckFigureN(n); err != nil {
		return nil, err
	}
	return theory.ComputeGrid(m, v, n), nil
}

// RenderFigure renders one of the paper's region figures (Figure 2 for
// MP/CR, 4 for MP/Byz, 5 for SM/CR, 6 for SM/Byz) as text, six panels, for
// any n >= 3 (the paper uses n = 64).
func RenderFigure(m Model, n int) (string, error) { return ascii.RenderFigure(m, n) }

// RenderLattice renders Figure 1, the "weaker-than" lattice over the six
// validity conditions.
func RenderLattice() string { return ascii.RenderLattice() }

// WriteGridCSV writes one panel as CSV (model, validity, n, k, t, status,
// lemma, protocol) for external plotting.
func WriteGridCSV(w io.Writer, g *Grid) error { return ascii.WriteGridCSV(w, g) }
