// Command ksetsweep runs parameter-grid sweeps over the paper's problem
// space — the cross product (model × validity × n × k × t × fault plan),
// with any number of independently seeded trials per point — and emits one
// structured record per (cell, trial) as CSV and/or JSONL.
//
// Usage:
//
//	ksetsweep -local -n 8,12 -k 2,3 -t 1,2 -jsonl sweep.jsonl
//	ksetsweep -local -models mp/cr,sm/cr -validities rv1,rv2 -runs 32 -csv sweep.csv
//	ksetsweep -peers :7001,:7002,:7003 -n 8,16,64 -trials 4 -jsonl sweep.jsonl
//
// With -peers the grid is sharded across live ksetd nodes: the coordinator
// streams fixed-size shards to each node as sweep-job frames, reassigns the
// shards of a node that crashes, stalls past -timeout, or rejects work, and
// merges records by cell index. Because every cell seeds itself from its
// coordinates, the merged output is byte-identical to a -local run of the
// same flags — for any worker count, shard size, node count, and any pattern
// of mid-sweep reassignment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"kset/internal/cluster"
	"kset/internal/grid"
	"kset/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ksetsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetsweep", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		models     = fs.String("models", "mp/cr", "comma-separated model axis (mp/cr, mp/byz, sm/cr, sm/byz)")
		validities = fs.String("validities", "rv1", "comma-separated validity axis (sv1, sv2, rv1, rv2, wv1, wv2)")
		ns         = fs.String("n", "8", "comma-separated system sizes")
		ks         = fs.String("k", "2", "comma-separated agreement bounds")
		ts         = fs.String("t", "1", "comma-separated fault tolerances")
		faults     = fs.String("faults", "full", "comma-separated fault plans (full, half, none)")
		trials     = fs.Int("trials", 1, "independently seeded records per grid point")
		runs       = fs.Int("runs", 16, "randomized adversarial runs per record")
		seed       = fs.Uint64("seed", 1, "master seed (cells derive theirs by hashing coordinates)")
		csvPath    = fs.String("csv", "", "write records as CSV to this file")
		jsonlPath  = fs.String("jsonl", "", "write records as JSONL to this file")
		local      = fs.Bool("local", false, "execute the grid in-process instead of over -peers")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "worker threads for -local execution (output is identical for any count)")
		peers      = fs.String("peers", "", "comma-separated ksetd node addresses to shard the grid across")
		shard      = fs.Int("shard", 64, "cells per distributed shard")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-shard round-trip bound; a node stalling past it loses the shard")
		quiet      = fs.Bool("quiet", false, "suppress the summary line")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := specFromFlags(*models, *validities, *ns, *ks, *ts, *faults, *trials, *runs, *seed)
	if err != nil {
		return err
	}

	var (
		records []grid.Record
		stats   cluster.SweepStats
	)
	switch {
	case *local:
		records = spec.Run(sweep.NewPool(*workers).Map)
	case *peers != "":
		addrs := cluster.ParseAddrs(*peers)
		if len(addrs) == 0 {
			return fmt.Errorf("no usable addresses in -peers %q", *peers)
		}
		records, stats, err = cluster.RunSweep(addrs, spec, cluster.SweepOptions{
			ShardCells: *shard,
			Timeout:    *timeout,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ksetsweep: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("pick an execution mode: -local or -peers addr1,addr2,...")
	}

	if err := writeOutputs(records, *csvPath, *jsonlPath, out); err != nil {
		return err
	}
	if !*quiet {
		printSummary(out, records, stats)
	}
	return nil
}

// specFromFlags assembles and validates the grid spec from the axis flags.
func specFromFlags(models, validities, ns, ks, ts, faults string, trials, runs int, seed uint64) (*grid.Spec, error) {
	s := &grid.Spec{Trials: trials, Runs: runs, Seed: seed}
	var err error
	if s.Models, err = grid.ParseModels(models); err != nil {
		return nil, err
	}
	if s.Validities, err = grid.ParseValidities(validities); err != nil {
		return nil, err
	}
	if s.Ns, err = grid.ParseInts(ns); err != nil {
		return nil, err
	}
	if s.Ks, err = grid.ParseInts(ks); err != nil {
		return nil, err
	}
	if s.Ts, err = grid.ParseInts(ts); err != nil {
		return nil, err
	}
	if s.Plans, err = grid.ParseFaultPlans(faults); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// writeOutputs renders the records to the requested files; with neither -csv
// nor -jsonl the JSONL stream goes to stdout.
func writeOutputs(records []grid.Record, csvPath, jsonlPath string, out io.Writer) error {
	if csvPath == "" && jsonlPath == "" {
		return grid.WriteJSONL(out, records)
	}
	if csvPath != "" {
		if err := writeFile(csvPath, func(w io.Writer) error {
			return grid.WriteCSV(w, records)
		}); err != nil {
			return err
		}
	}
	if jsonlPath != "" {
		if err := writeFile(jsonlPath, func(w io.Writer) error {
			return grid.WriteJSONL(w, records)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// printSummary reports the sweep's shape and verdicts on one line.
func printSummary(out io.Writer, records []grid.Record, stats cluster.SweepStats) {
	byStatus := map[string]int{}
	clean := 0
	for i := range records {
		byStatus[records[i].Status]++
		if records[i].Status == "solvable" && records[i].Violations == 0 && records[i].RunErrors == 0 {
			clean++
		}
	}
	fmt.Fprintf(out, "sweep: %d records (%d solvable, %d impossible, %d open, %d invalid); %d/%d solvable cells clean",
		len(records), byStatus["solvable"], byStatus["impossible"], byStatus["open"],
		byStatus[grid.StatusInvalid], clean, byStatus["solvable"])
	if stats.Shards > 0 {
		fmt.Fprintf(out, "; %d shards, %d reassigned, %d nodes failed", stats.Shards, stats.Reassigns, stats.NodesFailed)
	}
	fmt.Fprintln(out)
}
