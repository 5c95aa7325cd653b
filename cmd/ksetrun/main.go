// Command ksetrun executes a single k-set consensus run and prints its
// trace and outcome. It can run the witness protocol of any solvable cell,
// or one of the paper's impossibility-proof constructions (-demo). With
// -live, a crash-model message-passing cell runs instead as one instance on
// an in-process loopback cluster: n nodes over real TCP on 127.0.0.1, the
// substrate ksetd serves. Such a run has no event trace and no replay.
//
// Usage:
//
//	ksetrun -model mp/cr -validity rv1 -n 8 -k 3 -t 2 -seed 7
//	ksetrun -live -model mp/cr -n 6 -k 3 -t 2  # the same cell over TCP
//	ksetrun -model sm/byz -validity wv2 -n 6 -k 2 -t 3 -inputs 4,4,4,4,4,4
//	ksetrun -demo lemma3.3 -n 8 -k 2 -t 5      # Figure 3's run, violated live
//	ksetrun -demo list                          # list available demos
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"kset/internal/adversary"
	"kset/internal/ascii"
	"kset/internal/checker"
	"kset/internal/cluster"
	"kset/internal/harness"
	"kset/internal/mpnet"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
	"kset/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ksetrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetrun", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		model    = fs.String("model", "mp/cr", "model: mp/cr, mp/byz, sm/cr, sm/byz")
		validity = fs.String("validity", "rv1", "validity condition (sv1..wv2)")
		n        = fs.Int("n", 8, "number of processes")
		k        = fs.Int("k", 3, "agreement bound")
		t        = fs.Int("t", 2, "failure bound")
		seed     = fs.Uint64("seed", 1, "run seed")
		inputs   = fs.String("inputs", "", "comma-separated inputs (default: 1..n)")
		quiet    = fs.Bool("quiet", false, "suppress the event trace")
		diagram  = fs.Bool("diagram", false, "render a space-time diagram instead of a raw trace")
		live     = fs.Bool("live", false, "run a crash-model message-passing cell on a loopback TCP cluster instead of the deterministic simulator")
		demo     = fs.String("demo", "", "run a paper construction instead (see -demo list)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *demo == "list" {
		fmt.Fprintln(out, "available demos (impossibility-proof constructions):")
		for _, e := range adversary.Registry {
			fmt.Fprintln(out, "  ", e.Name)
		}
		return nil
	}
	if *demo != "" {
		return runDemo(out, *demo, *n, *k, *t, *quiet)
	}

	vals, err := parseInputs(*inputs, *n)
	if err != nil {
		return err
	}
	m, err := types.ParseModel(*model)
	if err != nil {
		return err
	}
	v, err := types.ParseValidity(*validity)
	if err != nil {
		return err
	}

	if *live {
		switch {
		case *diagram:
			return fmt.Errorf("-diagram requires the deterministic simulator; drop -live")
		case m.Comm == types.SharedMemory:
			return fmt.Errorf("-live runs on a TCP cluster and %s is a shared-memory model; drop -live", m)
		case m.Failure == types.Byzantine:
			return fmt.Errorf("-live has no Byzantine nodes and %s is a Byzantine model; drop -live", m)
		}
	}

	res := theory.Classify(m, v, *n, *k, *t)
	fmt.Fprintf(out, "SC(k=%d, t=%d, %s) in %s with n=%d: %s", *k, *t, v, m, *n, res.Status)
	switch res.Status {
	case theory.Solvable:
		fmt.Fprintf(out, " via %s (%s)\n\n", res.Protocol, res.Lemma)
	case theory.Impossible:
		fmt.Fprintf(out, " (%s)\n", res.Lemma)
		return fmt.Errorf("no protocol exists at this point; try -demo to see a violation construction")
	default:
		fmt.Fprintln(out, " (open problem in the paper)")
		return fmt.Errorf("no witness protocol for an open point")
	}

	var rec *types.RunRecord
	var dia *ascii.Diagram
	switch m.Comm {
	case types.MessagePassing:
		if *live {
			rec, err = runLive(out, res, *n, *k, *t, *seed, vals)
			if err != nil {
				return err
			}
			break
		}
		factory, err := harness.MPFactory(res)
		if err != nil {
			return err
		}
		cfg := mpnet.Config{
			N: *n, T: *t, K: *k,
			Inputs: vals, NewProtocol: factory, Seed: *seed,
		}
		switch {
		case *diagram:
			dia = ascii.NewDiagram(*n)
			cfg.Trace = dia.Observe
		case !*quiet:
			cfg.Trace = func(ev mpnet.TraceEvent) { fmt.Fprintln(out, ev) }
		}
		rec, err = mpnet.Run(cfg)
		if err != nil {
			return err
		}
	case types.SharedMemory:
		factory, err := harness.SMFactory(res)
		if err != nil {
			return err
		}
		cfg := smmem.Config{
			N: *n, T: *t, K: *k,
			Inputs: vals, NewProtocol: factory, Seed: *seed,
		}
		if !*quiet {
			cfg.Trace = func(ev smmem.TraceEvent) { fmt.Fprintln(out, ev) }
		}
		rec, err = smmem.Run(cfg)
		if err != nil {
			return err
		}
	}

	if dia != nil {
		fmt.Fprint(out, dia.Render())
	}
	printOutcome(out, rec, v)
	return nil
}

// runLive runs the cell's witness as instance 1 on an n-node loopback
// cluster.
func runLive(out io.Writer, res theory.Result, n, k, t int, seed uint64, inputs []types.Value) (*types.RunRecord, error) {
	fmt.Fprintf(out, "loopback cluster: %d nodes over TCP, schedule chosen by the network and the Go scheduler, no event trace\n", n)
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{N: n, K: k, T: t, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	spec := trace.SpecFor(res)
	return lb.RunInstance(wire.Start{Instance: 1, K: k, T: t, Proto: uint8(spec.Proto), Ell: spec.Ell}, inputs)
}

func runDemo(out io.Writer, name string, n, k, t int, quiet bool) error {
	build, ok := adversary.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown demo %q (try -demo list)", name)
	}
	cons, err := build(n, k, t)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "construction %s (%s): expecting a %s violation\n\n", cons.Name, cons.Lemma, cons.Expect)
	trace := out
	if quiet {
		trace = nil
	}
	rec, err := cons.Run(1, trace)
	if err != nil {
		return err
	}
	printOutcome(out, rec, cons.Validity)
	return nil
}

func printOutcome(out io.Writer, rec *types.RunRecord, v types.Validity) {
	fmt.Fprintln(out)
	fmt.Fprintln(out, "outcome:", rec)
	for i := 0; i < rec.N; i++ {
		status := "correct"
		if rec.Faulty[i] {
			status = "faulty"
		}
		decision := "undecided"
		if rec.Decided[i] {
			decision = "decided " + strconv.FormatInt(int64(rec.Decisions[i]), 10)
		}
		fmt.Fprintf(out, "  %-4s input=%-4d %-8s %s\n", types.ProcessID(i), rec.Inputs[i], status, decision)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "checks:")
	report := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(out, "  %-12s VIOLATED: %v\n", name, err)
		} else {
			fmt.Fprintf(out, "  %-12s ok\n", name)
		}
	}
	report("termination", checker.CheckTermination(rec))
	report("agreement", checker.CheckAgreement(rec))
	report(v.String(), checker.CheckValidity(rec, v))
}

func parseInputs(s string, n int) ([]types.Value, error) {
	if s == "" {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.Value(i + 1)
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-inputs lists %d values but -n is %d: every process needs exactly one input", len(parts), n)
	}
	out := make([]types.Value, n)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input %q: %w", p, err)
		}
		out[i] = types.Value(v)
	}
	return out, nil
}
