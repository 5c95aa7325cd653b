// Command ksetverify empirically validates the paper's figures: for each
// panel of a region figure it samples cells, runs the witness protocol of
// each solvable cell under randomized adversarial sweeps checking all three
// SC conditions, and executes the scripted counterexample constructions for
// representative impossible cells, reporting the violations they exhibit.
//
// Usage:
//
//	ksetverify -fig all -n 10 -runs 24          # quick pass, all figures
//	ksetverify -fig 2 -n 64 -runs 32 -samples 6 # Figure 2 at the paper's n
//	ksetverify -constructions                    # counterexample demos only
//	ksetverify -fig all -workers 8               # fan cells across 8 workers
//
// Sampled cells fan out across -workers OS threads (default: GOMAXPROCS);
// each cell's runs run serially on the worker that took it. Seeds are
// pre-drawn and results merged in canonical order, so the output is
// byte-identical for every worker count.
//
// The summary printed at the end is the data recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"kset/internal/adversary"
	"kset/internal/grid"
	"kset/internal/harness"
	"kset/internal/shrink"
	"kset/internal/theory"
	"kset/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ksetverify:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetverify", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		fig           = fs.String("fig", "all", `figure to validate: 2, 4, 5, 6 or "all"`)
		n             = fs.Int("n", 10, "number of processes (64 reproduces the paper's size; 10 is fast)")
		runs          = fs.Int("runs", 24, "randomized runs per sampled cell")
		samples       = fs.Int("samples", 5, "solvable cells sampled per panel")
		seed          = fs.Uint64("seed", 1, "sweep seed")
		constructions = fs.Bool("constructions", false, "run only the impossibility constructions")
		workers       = fs.Int("workers", runtime.GOMAXPROCS(0), "worker threads for sweeps (output is identical for any count)")
		saveFailures  = fs.String("save-failures", "", "directory to write shrunk .ktr trace artifacts for every sweep violation (replay with ksetreplay)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	exec := grid.FanOut(*workers)
	if *saveFailures != "" {
		if err := os.MkdirAll(*saveFailures, 0o755); err != nil {
			return err
		}
	}

	if *constructions {
		return runConstructions(out, *n, exec)
	}

	var figures []theory.Figure
	for _, f := range theory.Figures() {
		if *fig == "all" || *fig == fmt.Sprint(f.Number) {
			figures = append(figures, f)
		}
	}
	if len(figures) == 0 {
		return fmt.Errorf("unknown figure %q", *fig)
	}

	failures := 0
	for _, f := range figures {
		fmt.Fprintf(out, "=== Figure %d (%s, n=%d) ===\n", f.Number, f.Model, *n)
		// One shared classifier pass covers all six validity panels.
		panels := theory.ComputeFigure(f.Model, *n)
		checks := grid.ValidatePanels(panels, func(g *theory.Grid) uint64 {
			return *seed + uint64(*n)*1000 + uint64(g.Validity)
		}, *samples, *runs, exec)
		for i, g := range panels {
			failures += renderPanel(out, g, checks[i], *saveFailures)
		}
		fmt.Fprintln(out)
	}
	if failures > 0 {
		return fmt.Errorf("%d cell validations failed", failures)
	}
	fmt.Fprintln(out, "all sampled cells validated: termination, agreement and validity held in every run")
	return nil
}

// renderPanel prints one panel's counts and its validated cells, saving a
// shrunk artifact of every violation under saveDir when it is set, and
// returns the number of failed cells.
func renderPanel(out io.Writer, g *theory.Grid, checks []grid.CellCheck, saveDir string) int {
	s, i, o := g.Count()
	fmt.Fprintf(out, "%-4s panel: %4d solvable / %4d impossible / %3d open cells\n", g.Validity, s, i, o)
	failures := 0
	for _, chk := range checks {
		c, sum := chk.Cell, chk.Sum
		if chk.Err != nil {
			fmt.Fprintf(out, "     cell k=%-3d t=%-3d ERROR: %v\n", c.K, c.T, chk.Err)
			failures++
			continue
		}
		status := "ok"
		if !sum.OK() {
			status = "FAILED"
			failures++
		}
		fmt.Fprintf(out, "     cell k=%-3d t=%-3d via %-32s %d runs %s\n",
			c.K, c.T, g.At(c.K, c.T).Protocol, sum.Runs, status)
		if !sum.OK() {
			for _, viol := range sum.Violations {
				fmt.Fprintf(out, "       violation: %v\n", viol.Err)
				if saveDir != "" {
					if path, err := saveFailure(saveDir, g, c, viol.Seed); err != nil {
						fmt.Fprintf(out, "       save failed: %v\n", err)
					} else {
						fmt.Fprintf(out, "       saved: %s\n", path)
					}
				}
			}
			for _, e := range sum.RunErrors {
				fmt.Fprintf(out, "       run error: %v\n", e.Err)
			}
		}
	}
	return failures
}

// saveFailure captures the violating run as a trace artifact, shrinks it to
// a minimal counterexample that still exhibits the same condition, and
// writes it under dir. The shrink runs serially — its determinism guarantee
// makes worker counts irrelevant to the artifact, and failure capture is off
// the hot path.
func saveFailure(dir string, g *theory.Grid, c theory.CellPoint, runSeed uint64) (string, error) {
	tr, _, err := harness.CaptureCellRun(g.Model, g.Validity, g.N, c.K, c.T, runSeed)
	if err != nil {
		return "", err
	}
	if !tr.Verdict.OK {
		if min, _, err := shrink.Minimize(tr, shrink.Options{}); err == nil {
			tr = min
		}
		// A shrink error means the capture is flaky; save the unshrunk
		// artifact so the evidence survives.
	}
	data, err := trace.Encode(tr)
	if err != nil {
		return "", err
	}
	model := strings.ReplaceAll(strings.ToLower(g.Model.String()), "/", "-")
	name := fmt.Sprintf("%s-%s-n%d-k%d-t%d-seed%d.ktr",
		model, strings.ToLower(g.Validity.String()), g.N, c.K, c.T, runSeed)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// runConstructions runs every construction at its representative point for
// n (the evaluation report's table) across the executor and reports the
// exhibited violations in table order.
func runConstructions(out io.Writer, n int, exec harness.Executor) error {
	fmt.Fprintf(out, "impossibility constructions at n=%d:\n\n", n)
	reps := adversary.Representatives(n)
	exec.Run(len(reps), func(j int) { reps[j].Run() })
	for _, r := range reps {
		c := r.Cons
		switch {
		case c == nil:
			fmt.Fprintf(out, "  (%s probe skipped: %v)\n", r.Name, r.Err)
		case r.RunErr != nil:
			return r.RunErr
		case r.Out == nil:
			fmt.Fprintf(out, "  %-28s %-22s expected %-11s NO VIOLATION EXHIBITED\n", c.Name, c.Lemma, c.Expect)
		default:
			fmt.Fprintf(out, "  %-28s %-22s exhibited: %v\n", c.Name, c.Lemma, r.Out.Violation)
		}
	}
	return nil
}
