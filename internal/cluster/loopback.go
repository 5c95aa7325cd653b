package cluster

import (
	"fmt"
	"net"
	"time"

	"kset/internal/theory"
	"kset/internal/types"
)

// Loopback is an in-process cluster on 127.0.0.1, used by the tests and by
// `ksetctl demo`: n nodes, each a full Node with real TCP links to the
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
	N, K, T      int
	DefaultProto theory.ProtocolID
	DefaultEll   int
	Seed         uint64
	Faults       Faults
	Retransmit   time.Duration
	// Shards sets each node's Config.Shards (0: GOMAXPROCS).
	Shards int
	Logf   func(format string, args ...any)
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
			ID:           types.ProcessID(i),
			N:            cfg.N,
			K:            cfg.K,
			T:            cfg.T,
			Peers:        addrs,
			DefaultProto: cfg.DefaultProto,
			DefaultEll:   cfg.DefaultEll,
			Seed:         cfg.Seed,
			Faults:       cfg.Faults,
			Retransmit:   cfg.Retransmit,
			Shards:       cfg.Shards,
			Logf:         cfg.Logf,
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

// SetLinkDown partitions (or heals) the directed link from node i to node j.
func (lb *Loopback) SetLinkDown(i, j int, down bool) {
	if i >= 0 && i < len(lb.Nodes) && lb.Nodes[i] != nil {
		lb.Nodes[i].SetPeerDown(types.ProcessID(j), down)
	}
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
