// ACS subcommands: drive the agreement-on-common-subset engine of a cluster
// started with `ksetd -acs`, and verify cluster-wide consistency of what it
// agreed — the controller is the judge here, exactly as `ksetctl run` is for
// plain instances.
package main

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"time"

	"kset/internal/cluster"
	"kset/internal/types"
	"kset/internal/wire"
)

func runAcs(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ksetctl acs propose -peers ... -value V [flags]")
	}
	switch args[0] {
	case "propose":
		return runAcsPropose(args[1:], out)
	default:
		return fmt.Errorf("unknown acs subcommand %q (want propose)", args[0])
	}
}

func runLog(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ksetctl log <append|tail> -peers ... [flags]")
	}
	switch args[0] {
	case "append":
		return runLogAppend(args[1:], out)
	case "tail":
		return runLogTail(args[1:], out)
	default:
		return fmt.Errorf("unknown log subcommand %q (want append or tail)", args[0])
	}
}

// runAcsPropose submits one value, waits for its round to close on every
// node, and verifies all nodes agree on the round's membership vector.
func runAcsPropose(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetctl acs propose", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		peers   = fs.String("peers", "", "comma-separated node addresses in id order (required)")
		node    = fs.Int("node", 0, "node to submit the value to")
		value   = fs.Int("value", 0, "value to propose (required)")
		timeout = fs.Duration("timeout", 30*time.Second, "deadline for the round to close cluster-wide")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := requirePeers(*peers)
	if err != nil {
		return err
	}
	if *node < 0 || *node >= len(addrs) {
		return fmt.Errorf("-node %d out of range for %d peers", *node, len(addrs))
	}
	clients, err := dialAll(addrs, 10*time.Second)
	if err != nil {
		return err
	}
	defer closeAll(clients)

	round, err := clients[*node].AcsSubmit(types.Value(*value))
	if err != nil {
		return fmt.Errorf("submit to node %d: %w", *node, err)
	}
	fmt.Fprintf(out, "node %d accepted value %d into round %d\n", *node, *value, round)

	views, err := awaitRound(clients, round, time.Now().Add(*timeout))
	if err != nil {
		return err
	}
	if err := verifyRoundViews(views, round); err != nil {
		return err
	}
	printVector(out, views[0])
	fmt.Fprintf(out, "round %d vector identical on %d nodes\n", round, len(clients))
	return nil
}

// runLogAppend submits one value and waits for it to land in the ordered log
// at the same index on every node.
func runLogAppend(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetctl log append", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		peers   = fs.String("peers", "", "comma-separated node addresses in id order (required)")
		node    = fs.Int("node", 0, "node to submit the value to")
		value   = fs.Int("value", 0, "value to append (required)")
		timeout = fs.Duration("timeout", 30*time.Second, "deadline for the entry to appear cluster-wide")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := requirePeers(*peers)
	if err != nil {
		return err
	}
	if *node < 0 || *node >= len(addrs) {
		return fmt.Errorf("-node %d out of range for %d peers", *node, len(addrs))
	}
	clients, err := dialAll(addrs, 10*time.Second)
	if err != nil {
		return err
	}
	defer closeAll(clients)

	round, err := clients[*node].AcsSubmit(types.Value(*value))
	if err != nil {
		return fmt.Errorf("submit to node %d: %w", *node, err)
	}
	want := wire.LogEntry{Round: round, Proposer: types.ProcessID(*node), Value: types.Value(*value)}

	// Find the entry's index on the submitting node, then insist every other
	// node logged the identical entry at the identical index.
	deadline := time.Now().Add(*timeout)
	index, err := awaitEntry(clients[*node], want, deadline)
	if err != nil {
		return fmt.Errorf("node %d: %w", *node, err)
	}
	for i, c := range clients {
		lg, err := awaitLogLength(c, index+1, deadline)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		got := lg.Entries[index-lg.Start]
		if got != want {
			return fmt.Errorf("node %d logged %+v at index %d, node %d logged %+v", i, got, index, *node, want)
		}
	}
	fmt.Fprintf(out, "appended value %d at log index %d (round %d, proposer %d), identical on %d nodes\n",
		*value, index, round, *node, len(clients))
	return nil
}

// runLogTail pulls a window of the ordered log from every node, verifies the
// copies agree entry by entry over the shared range, and prints one of them.
func runLogTail(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetctl log tail", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		peers  = fs.String("peers", "", "comma-separated node addresses in id order (required)")
		start  = fs.Uint64("start", 0, "first log index to pull")
		max    = fs.Int("max", wire.MaxLogEntries, "maximum entries to pull per node")
		strict = fs.Bool("strict", false, "require every node to return the same log length, not just a consistent prefix")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := requirePeers(*peers)
	if err != nil {
		return err
	}
	clients, err := dialAll(addrs, 10*time.Second)
	if err != nil {
		return err
	}
	defer closeAll(clients)

	logs := make([]wire.Log, len(clients))
	for i, c := range clients {
		if logs[i], err = c.Log(*start, *max); err != nil {
			return fmt.Errorf("log from node %d: %w", i, err)
		}
	}
	// Nodes close rounds independently, so totals may differ transiently;
	// prefix consistency is the safety property, equal totals (-strict) the
	// settled-state one.
	ref := logs[0]
	for i := 1; i < len(logs); i++ {
		got := logs[i]
		if *strict && (got.Total != ref.Total || len(got.Entries) != len(ref.Entries)) {
			return fmt.Errorf("log length divergence: node 0 total %d (%d pulled), node %d total %d (%d pulled)",
				ref.Total, len(ref.Entries), i, got.Total, len(got.Entries))
		}
		shared := len(ref.Entries)
		if len(got.Entries) < shared {
			shared = len(got.Entries)
		}
		for j := 0; j < shared; j++ {
			if got.Entries[j] != ref.Entries[j] {
				return fmt.Errorf("log divergence at index %d: node 0 has %+v, node %d has %+v",
					ref.Start+uint64(j), ref.Entries[j], i, got.Entries[j])
			}
		}
	}
	for j, le := range ref.Entries {
		fmt.Fprintf(out, "%6d  round %-6d proposer %-3d value %d\n", ref.Start+uint64(j), le.Round, le.Proposer, le.Value)
	}
	fmt.Fprintf(out, "log[%d:%d) of %d total, consistent on %d nodes\n",
		ref.Start, ref.Start+uint64(len(ref.Entries)), ref.Total, len(clients))
	return nil
}

func requirePeers(peers string) ([]string, error) {
	if peers == "" {
		return nil, fmt.Errorf("-peers is required")
	}
	return cluster.ParseAddrs(peers), nil
}

// awaitRound polls every node until it reports the round closed, returning
// the per-node views.
func awaitRound(clients []*cluster.Client, round uint64, deadline time.Time) ([]wire.AcsRound, error) {
	views := make([]wire.AcsRound, len(clients))
	for i, c := range clients {
		for {
			ar, err := c.AcsRound(round)
			if err != nil {
				return nil, fmt.Errorf("round %d from node %d: %w", round, i, err)
			}
			if ar.Closed {
				views[i] = ar
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("round %d still open on node %d at deadline", round, i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return views, nil
}

// verifyRoundViews checks that every node agreed on the same closed vector
// and that the vector is well-formed (no pending slots, every IN slot held).
func verifyRoundViews(views []wire.AcsRound, round uint64) error {
	for i := 1; i < len(views); i++ {
		if !reflect.DeepEqual(views[0], views[i]) {
			return fmt.Errorf("round %d vector divergence: node 0 reports %+v, node %d reports %+v",
				round, views[0], i, views[i])
		}
	}
	for i, s := range views[0].Slots {
		switch {
		case s.Status == wire.AcsPending:
			return fmt.Errorf("round %d closed with slot %d pending", round, i)
		case s.Status == wire.AcsIn && !s.Held:
			return fmt.Errorf("round %d admitted slot %d without holding its proposal", round, i)
		}
	}
	return nil
}

func printVector(out io.Writer, ar wire.AcsRound) {
	in := 0
	for i, s := range ar.Slots {
		status := "OUT"
		if s.Status == wire.AcsIn {
			status = "IN "
			in++
		}
		if s.Noop {
			fmt.Fprintf(out, "  slot %d: %s (noop)\n", i, status)
			continue
		}
		fmt.Fprintf(out, "  slot %d: %s value %d\n", i, status, s.Value)
	}
	fmt.Fprintf(out, "round %d: %d/%d proposals admitted\n", ar.Round, in, len(ar.Slots))
}

// awaitEntry polls one node until its log contains the entry, returning the
// entry's log index.
func awaitEntry(c *cluster.Client, want wire.LogEntry, deadline time.Time) (uint64, error) {
	for {
		lg, err := c.Log(0, wire.MaxLogEntries)
		if err != nil {
			return 0, err
		}
		for j, le := range lg.Entries {
			if le == want {
				return lg.Start + uint64(j), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("entry %+v not logged at deadline (log total %d)", want, lg.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitLogLength polls one node until its log holds at least length entries,
// returning a window that covers them.
func awaitLogLength(c *cluster.Client, length uint64, deadline time.Time) (wire.Log, error) {
	for {
		lg, err := c.Log(0, wire.MaxLogEntries)
		if err != nil {
			return wire.Log{}, err
		}
		if lg.Total >= length && uint64(len(lg.Entries)) >= length {
			return lg, nil
		}
		if time.Now().After(deadline) {
			return wire.Log{}, fmt.Errorf("log length %d at deadline, want >= %d", lg.Total, length)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
