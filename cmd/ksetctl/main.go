// Command ksetctl is the controller for a ksetd cluster: it starts
// consensus instances (submitting each node's input), collects every node's
// decision table, requires the copies to agree, verifies the agreed one with
// the checker, and reports the cluster's decision latency and its metric
// registries.
//
// Usage:
//
//	ksetctl run -peers host0:7000,host1:7000,host2:7000 \
//	        -instances 8 -k 2 -t 1 -protocol floodmin -validity rv1
//	ksetctl run -peers ... -instances 1 -inputs 4,7,2
//	ksetctl stats -peers host0:7000,host1:7000,host2:7000
//	ksetctl log append -peers ... -node 1 -value 42
//	ksetctl log tail -peers ... -start 0 -strict
//
// run waits until every node's table has every row decided and requires the
// tables to agree, then runs the checker once on the agreed table. log append
// submits one value to a node running with -acs, waits for the value's round
// to close on every node, verifies and prints the round vector, and checks
// that every node logged the value at the same index; log tail pulls a
// window of the ordered log from every node and verifies the copies agree
// entry by entry.
//
// run exits non-zero if the tables disagree or the agreed one fails the
// checker; the cluster is the system under test and ksetctl is the judge.
//
//ksetlint:package-allow determinism the client dials live nodes over TCP with deadlines and times the calls it reports
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"kset/internal/cluster"
	"kset/internal/obs"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// decideHist is the histogram every node records one sample into per local
// decision.
const decideHist = "kset_decide_latency_seconds"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ksetctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ksetctl <run|stats|log> -peers ... [flags]")
	}
	switch args[0] {
	case "run":
		return runInstances(args[1:], out)
	case "stats":
		return runStats(args[1:], out)
	case "log":
		return runLog(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want run, stats, or log)", args[0])
	}
}

// dialAll opens one control connection per node.
func dialAll(addrs []string, timeout time.Duration) ([]*cluster.Client, error) {
	clients := make([]*cluster.Client, len(addrs))
	for i, addr := range addrs {
		c, err := cluster.DialNode(addr, timeout)
		if err != nil {
			closeAll(clients)
			return nil, fmt.Errorf("dial node %d at %s: %w", i, addr, err)
		}
		clients[i] = c
	}
	return clients, nil
}

func closeAll(clients []*cluster.Client) {
	for _, c := range clients {
		if c != nil {
			_ = c.Close() // teardown of a connection we are abandoning
		}
	}
}

func runInstances(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetctl run", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		peers     = fs.String("peers", "", "comma-separated node addresses in id order (required)")
		instances = fs.Int("instances", 1, "number of concurrent instances to run")
		first     = fs.Uint64("first", 1, "id of the first instance")
		k         = fs.Int("k", 0, "agreement bound (0: node default)")
		t         = fs.Int("t", 0, "failure bound (0: node default)")
		protocol  = fs.String("protocol", "floodmin", "protocol each instance runs: floodmin, a, b, c, d, trivial")
		ell       = fs.Int("ell", 1, "echo parameter l for protocol c")
		validity  = fs.String("validity", "rv1", "validity condition to verify (sv1..wv2)")
		inputs    = fs.String("inputs", "", "comma-separated inputs for a single instance")
		timeout   = fs.Duration("timeout", 60*time.Second, "deadline for all instances to decide")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := requirePeers(*peers)
	if err != nil {
		return err
	}
	n := len(addrs)
	if *instances < 1 {
		return fmt.Errorf("-instances %d: need at least 1", *instances)
	}
	// ctl ids live below the top bit; ids with it set are the ACS engine's
	// vote instances, and nodes refuse a ctl start there.
	last := *first + uint64(*instances) - 1
	if last < *first || last>>63 != 0 {
		return fmt.Errorf("-first %d -instances %d: ids must stay below 2^63 (the top bit is the ACS vote namespace)", *first, *instances)
	}
	v, err := types.ParseValidity(*validity)
	if err != nil {
		return err
	}
	proto, err := cluster.ParseProtocol(*protocol)
	if err != nil {
		return err
	}
	protoEll := 0
	if proto == theory.ProtoC {
		protoEll = *ell
	}
	fixed, err := cluster.ParseInputs(*inputs, n)
	if err != nil {
		return err
	}
	if fixed != nil && *instances != 1 {
		return fmt.Errorf("-inputs only applies to a single instance")
	}
	inputsFor := func(id uint64) []types.Value {
		if fixed != nil {
			return fixed
		}
		vals := make([]types.Value, n)
		for i := range vals {
			vals[i] = types.Value(int(id)*100 + i + 1)
		}
		return vals
	}

	clients, err := dialAll(addrs, 10*time.Second)
	if err != nil {
		return err
	}
	defer closeAll(clients)

	// Submit every instance to every node, each with its own input.
	started := time.Now()
	for id := *first; id <= last; id++ {
		vals := inputsFor(id)
		for i, c := range clients {
			err := c.Start(wire.Start{
				Instance: id, K: *k, T: *t,
				Proto: uint8(proto), Ell: protoEll,
				Input: vals[i],
			})
			if err != nil {
				return fmt.Errorf("start instance %d on node %d: %w", id, i, err)
			}
		}
	}
	fmt.Fprintf(out, "started %d instance(s) on %d nodes\n", *instances, n)

	// Collect: wait until every node's table has every row decided (no
	// crashed nodes in a ksetctl-driven run — all n answered Start) and the
	// tables agree, then verify the agreed table with the full checker.
	deadline := time.Now().Add(*timeout)
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	failures := 0
	for id := *first; id <= last; id++ {
		tbl, err := cluster.CollectTables(id, live, func(i int) (wire.Table, error) {
			return clients[i].Table(id)
		}, deadline)
		if err != nil {
			return err
		}
		if _, err := cluster.VerifyTable(tbl, inputsFor(id), v, 0); err != nil {
			failures++
			fmt.Fprintf(out, "FAIL instance %d: %v\n", id, err)
			continue
		}
		fmt.Fprintf(out, "instance %d: identical on %d nodes, decisions %v\n", id, n, decided(tbl))
	}
	elapsed := time.Since(started)

	// Report the decision latency merged across every node, plus the
	// controller's wall-clock throughput.
	pulled, err := pullAll(clients)
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	reportDecideLatency(out, decideHists(pulled), n, n)
	fmt.Fprintf(out, "throughput: %d instance(s) in %v (%.1f/s)\n",
		*instances, elapsed.Round(time.Millisecond),
		float64(*instances)/elapsed.Seconds())
	if failures > 0 {
		return fmt.Errorf("%d instance(s) failed verification", failures)
	}
	fmt.Fprintf(out, "all decision tables checker-clean (%s)\n", strings.ToUpper(*validity))
	return nil
}

// decided lists the distinct values tbl's rows decided, in ascending order.
func decided(tbl wire.Table) []types.Value {
	var vals []types.Value
	for _, row := range tbl.Rows {
		if row.Decided {
			vals = append(vals, row.Value)
		}
	}
	slices.Sort(vals)
	return slices.Compact(vals)
}

func runStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetctl stats", flag.ContinueOnError)
	fs.SetOutput(out)
	peers := fs.String("peers", "", "comma-separated node addresses in id order (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := requirePeers(*peers)
	if err != nil {
		return err
	}

	// Dial each node independently: stats must degrade gracefully when part
	// of the cluster is unreachable instead of failing the whole report.
	var pulled []cluster.Metrics
	for i, addr := range addrs {
		c, err := cluster.DialNode(addr, 10*time.Second)
		if err != nil {
			fmt.Fprintf(out, "node %d (%s): unreachable: %v\n", i, addr, err)
			continue
		}
		m, err := c.Metrics()
		_ = c.Close()
		if err != nil {
			return fmt.Errorf("metrics from node %d: %w", i, err)
		}
		pulled = append(pulled, m)
		fmt.Fprintf(out, "node %d (%s):\n", i, addrs[i])
		for _, v := range m.Values {
			fmt.Fprintf(out, "  %-44s %d\n", v.Name, v.Value)
		}
	}
	if len(pulled) == 0 {
		return fmt.Errorf("no node reachable")
	}
	fmt.Fprintln(out)
	reportDecideLatency(out, decideHists(pulled), len(pulled), len(addrs))
	return nil
}

// pullAll pulls every node's metric registry.
func pullAll(clients []*cluster.Client) ([]cluster.Metrics, error) {
	out := make([]cluster.Metrics, len(clients))
	for i, c := range clients {
		m, err := c.Metrics()
		if err != nil {
			return nil, fmt.Errorf("metrics from node %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// decideHists picks every node's decide-latency histogram out of its pull.
func decideHists(pulled []cluster.Metrics) []obs.HistSnapshot {
	var hists []obs.HistSnapshot
	for _, m := range pulled {
		if h, ok := m.Hist(decideHist); ok {
			hists = append(hists, h)
		}
	}
	return hists
}

// reportDecideLatency prints the cluster-wide decision latency: every
// reachable node's decide histogram merged into one.
func reportDecideLatency(out io.Writer, perNode []obs.HistSnapshot, reachable, nodes int) {
	merged := obs.MergeSnapshots(perNode)
	fmt.Fprintf(out, "cluster-wide decision latency (%d/%d nodes, %d decisions):\n",
		reachable, nodes, merged.Count)
	if merged.Count == 0 {
		fmt.Fprintf(out, "  no decisions observed\n")
		return
	}
	fmt.Fprintf(out, "  min %s  mean %s  p95 %s  max %s\n",
		secDuration(merged.Min), secDuration(merged.Mean()),
		secDuration(merged.Quantile(0.95)), secDuration(merged.Max))
}

// secDuration renders a quantity of seconds as a duration rounded to whole
// microseconds.
func secDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}
