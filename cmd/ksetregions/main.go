// Command ksetregions regenerates the paper's figures: the validity lattice
// (Figure 1) and the solvability-region charts (Figures 2, 4, 5 and 6), as
// ASCII panels or CSV.
//
// Usage:
//
//	ksetregions -lattice                 # Figure 1
//	ksetregions -model mp/cr -n 64       # Figure 2 at the paper's n
//	ksetregions -model all -n 64         # Figures 2, 4, 5 and 6
//	ksetregions -model sm/byz -validity wv2 -n 64   # one panel
//	ksetregions -model mp/cr -csv > fig2.csv        # machine-readable
//	ksetregions -model mp/cr -boundaries            # numeric boundary table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"kset/internal/ascii"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ksetregions:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetregions", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		model      = fs.String("model", "all", `model: mp/cr, mp/byz, sm/cr, sm/byz, or "all"`)
		validity   = fs.String("validity", "", "restrict to one validity condition (sv1..wv2)")
		n          = fs.Int("n", 64, "number of processes (the paper uses 64)")
		lattice    = fs.Bool("lattice", false, "print Figure 1 (validity lattice) and exit")
		csv        = fs.Bool("csv", false, "emit CSV instead of ASCII charts")
		boundaries = fs.Bool("boundaries", false, "emit per-k numeric boundary tables instead of charts")
		diff       = fs.String("diff", "", `compare two models on one validity, e.g. "mp/cr:sm/cr" (requires -validity)`)
		openCells  = fs.Bool("open", false, "list the open-problem cells of each panel instead of charts")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "worker threads for grid classification (output is identical for any count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *lattice {
		fmt.Fprint(out, ascii.RenderLattice())
		return nil
	}
	if *n < 3 {
		return fmt.Errorf("n must be at least 3, got %d", *n)
	}
	if *diff != "" {
		return runDiff(out, *diff, *validity, *n)
	}

	var models []types.Model
	if *model == "all" {
		models = types.AllModels()
	} else {
		m, err := types.ParseModel(*model)
		if err != nil {
			return err
		}
		models = []types.Model{m}
	}

	validities := types.AllValidities()
	if *validity != "" {
		v, err := types.ParseValidity(*validity)
		if err != nil {
			return err
		}
		validities = []types.Validity{v}
	}

	// Classify each model's panels as an independent job (all six panels of a
	// figure share one classifier pass), then render sequentially in model
	// order — the output never depends on the worker count.
	type modelJob struct {
		fig   int
		grids []*theory.Grid
	}
	jobs := make([]modelJob, len(models))
	for i, m := range models {
		fig, err := theory.FigureForModel(m)
		if err != nil {
			return err
		}
		jobs[i].fig = fig
	}
	sweep.NewPool(*workers).Map(len(models), func(i int) {
		if len(validities) == len(types.AllValidities()) {
			jobs[i].grids = theory.ComputeFigure(models[i], *n)
			return
		}
		for _, v := range validities {
			jobs[i].grids = append(jobs[i].grids, theory.ComputeGrid(models[i], v, *n))
		}
	})

	for i, m := range models {
		if !*csv {
			fmt.Fprintf(out, "Figure %d: %s model, n=%d processes\n\n", jobs[i].fig, m, *n)
		}
		for _, g := range jobs[i].grids {
			switch {
			case *csv:
				if err := ascii.WriteGridCSV(out, g); err != nil {
					return err
				}
			case *openCells:
				listOpenCells(out, g)
			case *boundaries:
				fmt.Fprintln(out, ascii.RenderBoundarySummary(g))
			default:
				fmt.Fprintln(out, ascii.RenderGrid(g))
				s, i, o := g.Count()
				fmt.Fprintf(out, "cells: %d solvable, %d impossible, %d open\n\n", s, i, o)
			}
		}
	}
	return nil
}

// runDiff renders the cells where two models classify one validity panel
// differently.
func runDiff(out io.Writer, pair, validity string, n int) error {
	if validity == "" {
		return fmt.Errorf("-diff requires -validity")
	}
	v, err := types.ParseValidity(validity)
	if err != nil {
		return err
	}
	a, b, ok := strings.Cut(pair, ":")
	if !ok {
		return fmt.Errorf("-diff wants two models separated by ':', got %q", pair)
	}
	ma, err := types.ParseModel(a)
	if err != nil {
		return err
	}
	mb, err := types.ParseModel(b)
	if err != nil {
		return err
	}
	rendered, err := ascii.DiffGrids(theory.ComputeGrid(ma, v, n), theory.ComputeGrid(mb, v, n))
	if err != nil {
		return err
	}
	fmt.Fprint(out, rendered)
	return nil
}

// listOpenCells prints the cells the paper leaves open in one panel — its
// open problems, concretely enumerated.
func listOpenCells(out io.Writer, g *theory.Grid) {
	count := 0
	for k := g.KMin(); k <= g.KMax(); k++ {
		for t := g.TMin(); t <= g.TMax(); t++ {
			if g.At(k, t).Status == theory.Open {
				if count == 0 {
					fmt.Fprintf(out, "%s %s n=%d open cells:\n", g.Model, g.Validity, g.N)
				}
				count++
				fmt.Fprintf(out, "  k=%-3d t=%-3d\n", k, t)
			}
		}
	}
	if count == 0 {
		fmt.Fprintf(out, "%s %s n=%d: no open cells (fully characterized)\n", g.Model, g.Validity, g.N)
	} else {
		fmt.Fprintf(out, "  (%d open cells)\n", count)
	}
}
