// Command ksetreplay loads trace artifacts (.ktr files captured by
// ksetverify -save-failures, the harness, or a previous -shrink), re-executes
// each through the real simulator, and verifies that the recorded verdict —
// and, for exact artifacts, the recorded decision schedule — is reproduced.
// It is the regression driver for testdata/traces and the front end of the
// counterexample shrinker.
//
// Usage:
//
//	ksetreplay trace.ktr ...             # replay + verify each artifact
//	ksetreplay -trace trace.ktr          # also print the event trace
//	ksetreplay -diagram trace.ktr        # ascii space-time diagram (mp only)
//	ksetreplay -shrink -o min.ktr t.ktr  # minimize to the smallest artifact
//	                                     # that still exhibits the violation
//	ksetreplay -shrink -workers 8 t.ktr  # parallel shrink (same output)
//
// Exit status is non-zero if any artifact fails to load, replay, or
// reproduce its verdict.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"

	"kset/internal/ascii"
	"kset/internal/mpnet"
	"kset/internal/shrink"
	"kset/internal/smmem"
	"kset/internal/sweep"
	"kset/internal/trace"
	"kset/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ksetreplay:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetreplay", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		showTrace = fs.Bool("trace", false, "print the full event trace of the replay")
		diagram   = fs.Bool("diagram", false, "render an ascii space-time diagram (message-passing artifacts)")
		doShrink  = fs.Bool("shrink", false, "minimize the artifact while preserving its violation")
		outPath   = fs.String("o", "", `output path for -shrink (default: input with a ".min.ktr" suffix)`)
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "workers for shrink candidate evaluation (output is identical for any count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no artifacts given (want one or more .ktr files)")
	}
	if *outPath != "" && (!*doShrink || len(files) != 1) {
		return fmt.Errorf("-o requires -shrink and exactly one artifact")
	}
	failures := 0
	for _, path := range files {
		if err := replayFile(out, path, *showTrace, *diagram); err != nil {
			fmt.Fprintf(out, "%s: FAILED: %v\n", path, err)
			failures++
			continue
		}
		if *doShrink {
			if err := shrinkFile(out, path, *outPath, *workers); err != nil {
				fmt.Fprintf(out, "%s: shrink FAILED: %v\n", path, err)
				failures++
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d artifacts failed", failures, len(files))
	}
	return nil
}

// replayFile loads one artifact, re-executes it, and verifies the verdict
// (always) and schedule fidelity (reported; shrunk artifacts legitimately
// carry a truncated script that the fallback rules extend).
func replayFile(out io.Writer, path string, showTrace, diagram bool) error {
	t, err := load(path)
	if err != nil {
		return err
	}
	res, err := trace.Replay(t)
	if err != nil {
		return err
	}
	if res.Verdict != t.Verdict {
		return fmt.Errorf("verdict mismatch:\n  recorded: %v\n  replayed: %v", t.Verdict, res.Verdict)
	}
	exact := reflect.DeepEqual(res.Schedule, t.Schedule) && reflect.DeepEqual(res.Crashes, t.Crashes)
	fidelity := "exact"
	if !exact {
		fidelity = fmt.Sprintf("shrunk script (%d scripted, %d replayed)", len(t.Schedule), len(res.Schedule))
	}
	fmt.Fprintf(out, "%s: %s %s n=%d k=%d t=%d seed=%d: verdict %v [%s]\n",
		path, strings.ToLower(t.Model.String()), strings.ToLower(t.Validity.String()),
		t.N, t.K, t.T, t.Seed, t.Verdict, fidelity)
	if showTrace || diagram {
		return renderRun(out, t, showTrace, diagram)
	}
	return nil
}

// renderRun re-executes the artifact once more with the event trace hooked
// up, printing events and/or the ascii diagram.
func renderRun(out io.Writer, t *trace.Trace, showTrace, diagram bool) error {
	switch t.Model.Comm {
	case types.MessagePassing:
		cfg, err := trace.BuildMPConfig(t)
		if err != nil {
			return err
		}
		d := ascii.NewDiagram(t.N)
		cfg.Trace = func(ev mpnet.TraceEvent) {
			if showTrace {
				fmt.Fprintln(out, " ", ev)
			}
			if diagram {
				d.Observe(ev)
			}
		}
		if _, err := mpnet.Run(cfg); err != nil {
			return err
		}
		if diagram {
			fmt.Fprint(out, d.Render())
		}
	case types.SharedMemory:
		if diagram {
			return fmt.Errorf("-diagram supports message-passing artifacts only")
		}
		cfg, err := trace.BuildSMConfig(t)
		if err != nil {
			return err
		}
		cfg.Trace = func(ev smmem.TraceEvent) { fmt.Fprintln(out, " ", ev) }
		if _, err := smmem.Run(cfg); err != nil {
			return err
		}
	}
	return nil
}

// shrinkFile minimizes one artifact and writes the result.
func shrinkFile(out io.Writer, path, outPath string, workers int) error {
	t, err := load(path)
	if err != nil {
		return err
	}
	min, stats, err := shrink.Minimize(t, shrink.Options{Exec: sweep.NewPool(workers).Map})
	if err != nil {
		return err
	}
	data, err := trace.Encode(min)
	if err != nil {
		return err
	}
	if outPath == "" {
		outPath = strings.TrimSuffix(path, filepath.Ext(path)) + ".min.ktr"
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: shrunk to %s: schedule %d->%d, faults %d->%d, n %d->%d (%d candidates, %d accepted)\n",
		path, outPath,
		len(t.Schedule), len(min.Schedule),
		len(t.Byzantine)+len(t.Crashes), len(min.Byzantine)+len(min.Crashes),
		t.N, min.N,
		stats.Candidates, stats.Accepted)
	return nil
}

func load(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.Decode(data)
}
