// Package ascii renders the paper's figures as text: the solvability-region
// charts of Figures 2, 4, 5 and 6 (one panel per validity condition, k on
// the horizontal axis, t on the vertical axis) and the validity lattice of
// Figure 1. It also writes machine-readable CSV for external plotting.
//
// Region glyphs follow the paper's legend:
//
//	# impossibility region ("brick pattern")
//	o solvability region   ("honeycomb pattern")
//	. open problem         (unfilled)
package ascii

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"kset/internal/theory"
	"kset/internal/types"
)

// Glyphs used in region charts.
const (
	GlyphSolvable   = 'o'
	GlyphImpossible = '#'
	GlyphOpen       = '.'
)

// Glyph returns the chart character for a status.
func Glyph(s theory.Status) rune {
	switch s {
	case theory.Solvable:
		return GlyphSolvable
	case theory.Impossible:
		return GlyphImpossible
	default:
		return GlyphOpen
	}
}

// RenderGrid renders one panel: t grows upward (n at top, 1 at bottom), k
// grows rightward (2 at left, n-1 at right), exactly the axes of the paper's
// figures.
func RenderGrid(g *theory.Grid) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, validity %s, n=%d  (o solvable, # impossible, . open)\n",
		g.Model, g.Validity, g.N)
	for t := g.TMax(); t >= g.TMin(); t-- {
		if t%8 == 0 || t == g.TMax() || t == g.TMin() {
			fmt.Fprintf(&b, "t=%3d |", t)
		} else {
			b.WriteString("      |")
		}
		for k := g.KMin(); k <= g.KMax(); k++ {
			b.WriteRune(Glyph(g.At(k, t).Status))
		}
		b.WriteByte('\n')
	}
	b.WriteString("      +")
	b.WriteString(strings.Repeat("-", g.KMax()-g.KMin()+1))
	b.WriteByte('\n')
	// Column labels every 8 columns.
	b.WriteString("       ")
	for k := g.KMin(); k <= g.KMax(); k++ {
		if k%8 == 0 {
			label := fmt.Sprintf("%d", k)
			b.WriteString(label)
			k += len(label) - 1
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteString("  (k)\n")
	return b.String()
}

// RenderFigure renders all six panels of one region figure in the paper's
// validity order, with the figure number in the header. It refuses n < 3.
func RenderFigure(m types.Model, n int) (string, error) {
	fig, err := theory.FigureForModel(m)
	if err != nil {
		return "", err
	}
	if err := theory.CheckFigureN(n); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s model, n=%d processes\n", fig, m, n)
	fmt.Fprintf(&b, "%s\n\n", strings.Repeat("=", 48))
	for _, g := range theory.ComputeFigure(m, n) {
		b.WriteString(RenderGrid(g))
		s, i, o := g.Count()
		fmt.Fprintf(&b, "cells: %d solvable, %d impossible, %d open\n\n", s, i, o)
	}
	return b.String(), nil
}

// WriteGridCSV writes one panel as CSV rows: model,validity,n,k,t,status,
// lemma,protocol.
func WriteGridCSV(w io.Writer, g *theory.Grid) error {
	if _, err := fmt.Fprintln(w, "model,validity,n,k,t,status,lemma,protocol"); err != nil {
		return err
	}
	for t := g.TMin(); t <= g.TMax(); t++ {
		for k := g.KMin(); k <= g.KMax(); k++ {
			r := g.At(k, t)
			_, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%s,%q,%q\n",
				g.Model, g.Validity, g.N, k, t, r.Status, r.Lemma, r.Protocol)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderLattice renders Figure 1: the "weaker-than" relation over the six
// validity conditions (an arrow from C to D means SC(C) is weaker than
// SC(D)).
func RenderLattice() string {
	var b strings.Builder
	b.WriteString("Figure 1: validity conditions (C -> D: C weaker than D)\n")
	b.WriteString("\n")
	b.WriteString("        SV1\n")
	b.WriteString("       /    \\\n")
	b.WriteString("    SV2      RV1\n")
	b.WriteString("       \\    /    \\\n")
	b.WriteString("        RV2      WV1\n")
	b.WriteString("           \\    /\n")
	b.WriteString("            WV2\n")
	b.WriteString("\n")
	b.WriteString("Direct implications (stronger => weaker):\n")
	edges := theory.WeakerEdges()
	ds := make([]types.Validity, 0, len(edges))
	for d := range edges {
		ds = append(ds, d)
	}
	slices.Sort(ds)
	for _, d := range ds {
		for _, c := range edges[d] {
			fmt.Fprintf(&b, "  %s => %s\n", d, c)
		}
	}
	return b.String()
}

// DiffGrids renders the cells where two panels (same n, usually the same
// validity in two models) classify differently — the visual form of the
// paper's cross-model comparisons, e.g. "shared memory strictly dominates
// message passing for RV2". Cell glyphs: the first grid's glyph, then '>',
// then the second's; '=' marks agreement.
func DiffGrids(a, b *theory.Grid) (string, error) {
	if a.N != b.N {
		return "", fmt.Errorf("ascii: grids have different n: %d vs %d", a.N, b.N)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "diff %s/%s vs %s/%s, n=%d (= same, a>b differ)\n",
		a.Model, a.Validity, b.Model, b.Validity, a.N)
	differing := 0
	for t := a.TMax(); t >= a.TMin(); t-- {
		if t%8 == 0 || t == a.TMax() || t == a.TMin() {
			fmt.Fprintf(&sb, "t=%3d |", t)
		} else {
			sb.WriteString("      |")
		}
		for k := a.KMin(); k <= a.KMax(); k++ {
			ra, rb := a.At(k, t), b.At(k, t)
			if ra.Status == rb.Status {
				sb.WriteByte('=')
			} else {
				differing++
				sb.WriteRune(Glyph(ra.Status))
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d of %d cells differ\n", differing, (a.KMax()-a.KMin()+1)*a.TMax())
	return sb.String(), nil
}

// RenderBoundarySummary prints, for one panel, the t-boundary of each region
// per k — a compact numeric form of the figure, useful for comparing with
// the paper's formulas.
func RenderBoundarySummary(g *theory.Grid) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s n=%d: per-k boundaries (max solvable t / min impossible t)\n",
		g.Model, g.Validity, g.N)
	fmt.Fprintf(&b, "%4s %14s %16s %6s\n", "k", "max solvable t", "min impossible t", "open")
	for k := g.KMin(); k <= g.KMax(); k++ {
		maxSolv, minImp, openCount := -1, -1, 0
		for t := g.TMin(); t <= g.TMax(); t++ {
			switch g.At(k, t).Status {
			case theory.Solvable:
				maxSolv = t
			case theory.Impossible:
				if minImp == -1 {
					minImp = t
				}
			case theory.Open:
				openCount++
			}
		}
		fmt.Fprintf(&b, "%4d %14s %16s %6d\n", k, cellStr(maxSolv), cellStr(minImp), openCount)
	}
	return b.String()
}

func cellStr(v int) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}
