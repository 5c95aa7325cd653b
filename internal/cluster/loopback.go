package cluster

import (
	"fmt"
	"log/slog"
	"net"
	"time"

	"kset/internal/types"
	"kset/internal/wire"
)

// Loopback is an in-process cluster on 127.0.0.1, used by the tests, by the
// benchmark driver's decide.* and acs.* workloads, by `ksetrun -live` and by
// ExampleStartLoopback: n nodes, each a full Node with real TCP links to the
// others. Crashing a node (killing its process) and flapping links are
// first-class operations so the soak tests can exercise the paper's failure
// model against the real transport.
type Loopback struct {
	Nodes []*Node
	Addrs []string
}

// LoopbackConfig configures StartLoopback. Zero values select the cluster
// defaults documented on Config.
type LoopbackConfig struct {
	N, K, T    int
	Seed       uint64
	Faults     Faults
	Retransmit time.Duration
	// Shards sets each node's Config.Shards (0: GOMAXPROCS).
	Shards int
	// Log is each node's Config.Log (nil: silent).
	Log *slog.Logger
	// Attach, if non-nil, runs on each node after construction and before
	// Serve — layered services (the ACS engine) register their handlers
	// here, before any frame can arrive.
	Attach func(*Node)
}

// StartLoopback binds n listeners on 127.0.0.1:0 (so the port numbers are
// known before any node dials), then starts the n nodes. On error, anything
// already started is shut down.
func StartLoopback(cfg LoopbackConfig) (*Loopback, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("%w: loopback n=%d", ErrBadConfig, cfg.N)
	}
	listeners := make([]net.Listener, cfg.N)
	addrs := make([]string, cfg.N)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lb := &Loopback{Addrs: addrs, Nodes: make([]*Node, cfg.N)}
	for i := range lb.Nodes {
		node, err := NewNode(Config{
			ID:         types.ProcessID(i),
			N:          cfg.N,
			K:          cfg.K,
			T:          cfg.T,
			Peers:      addrs,
			Seed:       cfg.Seed,
			Faults:     cfg.Faults,
			Retransmit: cfg.Retransmit,
			Shards:     cfg.Shards,
			Log:        cfg.Log,
		})
		if err != nil {
			for _, l := range listeners[i:] {
				_ = l.Close()
			}
			lb.Close()
			return nil, err
		}
		lb.Nodes[i] = node
		if cfg.Attach != nil {
			cfg.Attach(node)
		}
		node.Serve(listeners[i])
	}
	return lb, nil
}

// Crash kills node i: its listener and connections close and its goroutines
// exit, exactly the paper's crash failure — the process executes only
// finitely many instructions and its unsent messages are lost.
func (lb *Loopback) Crash(i int) {
	if i >= 0 && i < len(lb.Nodes) && lb.Nodes[i] != nil {
		lb.Nodes[i].Close()
		lb.Nodes[i] = nil
	}
}

// runInstanceDeadline bounds how long RunInstance waits for every live
// node's table to fill.
const runInstanceDeadline = 10 * time.Second

// RunInstance runs one instance across the cluster and returns its record.
// It starts s on every live node with inputs[i] as node i's input (s.Input
// is ignored), then collects the tables with CollectTables, so they must
// agree on every live row and a crashed node's row (nil in lb.Nodes) counts
// as faulty. The record's seed is the cluster's Seed.
func (lb *Loopback) RunInstance(s wire.Start, inputs []types.Value) (*types.RunRecord, error) {
	if len(inputs) != len(lb.Nodes) {
		return nil, fmt.Errorf("%w: %d inputs for %d nodes", ErrBadConfig, len(inputs), len(lb.Nodes))
	}
	live := make([]bool, len(lb.Nodes))
	var seed uint64
	for i, node := range lb.Nodes {
		if node == nil {
			continue
		}
		live[i], seed = true, node.cfg.Seed
		s.Input = inputs[i]
		if err := node.StartInstance(s); err != nil {
			return nil, fmt.Errorf("start instance %d on node %d: %w", s.Instance, i, err)
		}
	}
	tbl, err := CollectTables(s.Instance, live, func(i int) (wire.Table, error) {
		tbl, _ := lb.Nodes[i].Table(s.Instance)
		return tbl, nil
	}, time.Now().Add(runInstanceDeadline))
	if err != nil {
		return nil, err
	}
	return BuildRecord(tbl, inputs, seed)
}

// Close shuts down every surviving node.
func (lb *Loopback) Close() {
	for i, n := range lb.Nodes {
		if n != nil {
			n.Close()
			lb.Nodes[i] = nil
		}
	}
}
