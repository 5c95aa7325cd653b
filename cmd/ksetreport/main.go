// Command ksetreport runs the reproduction's entire evaluation — region
// grids at the paper's n=64, empirical validation sweeps, the impossibility
// constructions, the terminating-protocol experiment, and agreement
// tightness statistics — and writes a markdown report to stdout. It is the
// one-shot reproducibility artifact; EXPERIMENTS.md follows its structure.
//
// Usage:
//
//	ksetreport                      # defaults: sweeps at n=10
//	ksetreport -n 16 -runs 32 -samples 4 > report.md
//	ksetreport -workers 8           # fan sweeps across 8 workers
//
// The report is byte-identical for any -workers value: jobs are planned and
// rendered in canonical order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"kset/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ksetreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetreport", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n       = fs.Int("n", 10, "system size for empirical sweeps")
		runs    = fs.Int("runs", 16, "runs per sampled cell")
		samples = fs.Int("samples", 3, "cells sampled per panel")
		seed    = fs.Uint64("seed", 1, "evaluation seed")
		gridN   = fs.Int("gridn", 64, "system size for region tables (the paper uses 64)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "worker threads for sweeps (output is identical for any count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A figure has cells only from n = 3; a size below its least checks
	// nothing and must not read as a pass.
	if *n < 3 {
		return fmt.Errorf("-n %d: need at least 3", *n)
	}
	if *gridN < 3 {
		return fmt.Errorf("-gridn %d: need at least 3", *gridN)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs %d: need at least 1", *runs)
	}
	if *samples < 1 {
		return fmt.Errorf("-samples %d: need at least 1", *samples)
	}
	return report.Run(out, report.Config{
		N: *n, Runs: *runs, Samples: *samples, Seed: *seed, GridN: *gridN, Workers: *workers,
	})
}
