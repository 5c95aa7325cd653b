// The log subcommands drive the ordered log of a cluster started with
// `ksetd -acs` (agreement on a common subset, one round after another) and
// verify that every node holds the same copy: the controller is the judge
// here, exactly as `ksetctl run` is for plain instances.
package main

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"slices"
	"time"

	"kset/internal/cluster"
	"kset/internal/types"
	"kset/internal/wire"
)

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

// runLogAppend submits one value, waits for its round to close on every
// node, verifies and prints the round vector, and then requires every node to
// hold the value at the same log index.
func runLogAppend(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetctl log append", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		peers   = fs.String("peers", "", "comma-separated node addresses in id order (required)")
		node    = fs.Int("node", 0, "node to submit the value to")
		value   = fs.Int("value", 0, "value to append (required)")
		timeout = fs.Duration("timeout", 30*time.Second, "deadline for the value's round to close cluster-wide")
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
	deadline := time.Now().Add(*timeout)
	views := make([]wire.AcsRound, len(clients))
	for i, c := range clients {
		err := cluster.Poll(deadline, func() (bool, error) {
			var err error
			views[i], err = c.AcsRound(round)
			return views[i].Closed, err
		})
		if err != nil {
			return fmt.Errorf("round %d on node %d: %w", round, i, err)
		}
	}
	if err := verifyRoundViews(views, round); err != nil {
		return err
	}
	printVector(out, views[0])
	fmt.Fprintf(out, "round %d vector identical on %d nodes\n", round, len(clients))

	// A closed round is in the node's log, so no node needs another wait:
	// find the entry's index on the submitting node, then insist every node
	// logged the identical entry there.
	want := wire.LogEntry{Round: round, Proposer: types.ProcessID(*node), Value: types.Value(*value)}
	index, err := logIndex(clients[*node], want)
	if err != nil {
		return fmt.Errorf("node %d: %w", *node, err)
	}
	for i, c := range clients {
		lg, err := c.Log(index, 1)
		if err != nil {
			return fmt.Errorf("log from node %d: %w", i, err)
		}
		if len(lg.Entries) != 1 || lg.Entries[0] != want {
			return fmt.Errorf("node %d logged %+v at index %d, node %d logged %+v", i, lg.Entries, index, *node, want)
		}
	}
	fmt.Fprintf(out, "appended value %d at log index %d (round %d, proposer %d), identical on %d nodes\n",
		*value, index, round, *node, len(clients))
	return nil
}

// logIndex finds want in c's log, a window of wire.MaxLogEntries at a time.
func logIndex(c *cluster.Client, want wire.LogEntry) (uint64, error) {
	for start := uint64(0); ; {
		lg, err := c.Log(start, wire.MaxLogEntries)
		if err != nil {
			return 0, err
		}
		if j := slices.Index(lg.Entries, want); j >= 0 {
			return start + uint64(j), nil
		}
		if len(lg.Entries) == 0 {
			return 0, fmt.Errorf("entry %+v not in the log (%d entries)", want, lg.Total)
		}
		start += uint64(len(lg.Entries))
	}
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
