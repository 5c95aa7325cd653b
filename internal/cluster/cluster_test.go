package cluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"kset/internal/checker"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
	"kset/internal/wire"
)

// startEverywhere submits one instance to every surviving node with
// inputs[i] as node i's input. Dead nodes (nil in lb.Nodes) are skipped —
// they are the crashed processes of the run.
func startEverywhere(t *testing.T, lb *Loopback, instance uint64, k, tt int, proto theory.ProtocolID, inputs []types.Value) {
	t.Helper()
	for i, node := range lb.Nodes {
		if node == nil {
			continue
		}
		err := node.StartInstance(wire.Start{
			Instance: instance,
			K:        k,
			T:        tt,
			Proto:    uint8(proto),
			Input:    inputs[i],
		})
		if err != nil {
			t.Fatalf("start instance %d on node %d: %v", instance, i, err)
		}
	}
}

// collect waits, through CollectTables, until every node marked live holds
// the instance's table with every live row decided, and returns the table
// they agree on.
func collect(t *testing.T, lb *Loopback, instance uint64, live []bool, deadline time.Time) wire.Table {
	t.Helper()
	tbl, err := CollectTables(instance, live, func(i int) (wire.Table, error) {
		tbl, _ := lb.Nodes[i].Table(instance)
		return tbl, nil
	}, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func allAlive(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func TestLoopbackSingleInstance(t *testing.T) {
	const n = 3
	lb, err := StartLoopback(LoopbackConfig{N: n, K: 1, T: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	inputs := []types.Value{7, 3, 9}
	rec, err := lb.RunInstance(wire.Start{Instance: 1, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin)}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckAll(rec, types.RV1); err != nil {
		t.Fatalf("%v\nrecord: %v", err, rec)
	}
	// k=1, t=0 FloodMin is consensus on the minimum input.
	for i, v := range rec.Decisions {
		if !rec.Decided[i] || v != 3 {
			t.Errorf("row %d: decided %v %d, want 3", i, rec.Decided[i], v)
		}
	}
}

// TestRunInstanceEdges covers RunInstance's other outcomes: a node crashed
// before the start is a faulty row, a short input list is a configuration
// error, and a cluster with no live node fails instead of waiting.
func TestRunInstanceEdges(t *testing.T) {
	start := wire.Start{Instance: 1, K: 2, T: 1, Proto: uint8(theory.ProtoFloodMin)}
	t.Run("crashed", func(t *testing.T) {
		lb, err := StartLoopback(LoopbackConfig{N: 4, K: 2, T: 1, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		defer lb.Close()
		lb.Crash(2)
		rec, err := lb.RunInstance(start, []types.Value{4, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Faulty[2] || rec.FaultCount() != 1 {
			t.Errorf("faulty = %v, want only row 2", rec.Faulty)
		}
		if err := checker.CheckAll(rec, types.RV1); err != nil {
			t.Errorf("%v\nrecord: %v", err, rec)
		}
	})
	t.Run("inputs", func(t *testing.T) {
		lb, err := StartLoopback(LoopbackConfig{N: 3, K: 2, T: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer lb.Close()
		if _, err := lb.RunInstance(start, []types.Value{1, 2}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("2 inputs for 3 nodes: err = %v, want ErrBadConfig", err)
		}
	})
	t.Run("protocol", func(t *testing.T) {
		lb, err := StartLoopback(LoopbackConfig{N: 3, K: 2, T: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer lb.Close()
		// A shared-memory protocol is the Start's fault, not an artifact's.
		e := wire.Start{Instance: 1, K: 2, T: 1, Proto: uint8(theory.ProtoE)}
		err = lb.Nodes[0].StartInstance(e)
		if err == nil || errors.Is(err, trace.ErrBadTrace) || !strings.Contains(err.Error(), theory.ProtoE.String()) {
			t.Errorf("Start naming %s: err = %v, want an error naming it, not ErrBadTrace", theory.ProtoE, err)
		}
	})
	t.Run("all-crashed", func(t *testing.T) {
		lb, err := StartLoopback(LoopbackConfig{N: 2, K: 1, T: 1, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer lb.Close()
		lb.Crash(0)
		lb.Crash(1)
		if _, err := lb.RunInstance(start, []types.Value{1, 2}); err == nil {
			t.Error("every node crashed: RunInstance returned no error")
		}
	})
}

// TestLateStartBuffersFrames starts an instance on two nodes first, lets
// their protocol traffic reach the third node before its own Start, and
// checks the buffered frames are replayed: all three still decide.
func TestLateStartBuffersFrames(t *testing.T) {
	const n = 3
	lb, err := StartLoopback(LoopbackConfig{N: n, K: 1, T: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	inputs := []types.Value{5, 4, 6}
	for i := 0; i < 2; i++ {
		err := lb.Nodes[i].StartInstance(wire.Start{
			Instance: 9, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin), Input: inputs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Give the early starters' broadcasts time to land in node 2's pending
	// buffer before its Start arrives.
	time.Sleep(50 * time.Millisecond)
	err = lb.Nodes[2].StartInstance(wire.Start{
		Instance: 9, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin), Input: inputs[2],
	})
	if err != nil {
		t.Fatal(err)
	}

	tbl := collect(t, lb, 9, allAlive(n), time.Now().Add(10*time.Second))
	if _, err := VerifyTable(tbl, inputs, types.RV1, 2); err != nil {
		t.Fatal(err)
	}
}

// TestControlClient drives a node through the ksetctl client path: start via
// control connection, pull tables and metrics.
func TestControlClient(t *testing.T) {
	const n = 3
	lb, err := StartLoopback(LoopbackConfig{N: n, K: 1, T: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	inputs := []types.Value{2, 8, 2}
	clients := make([]*Client, n)
	for i := range clients {
		c, err := DialNode(lb.Addrs[i], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	for i, c := range clients {
		err := c.Start(wire.Start{
			Instance: 4, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin), Input: inputs[i],
		})
		if err != nil {
			t.Fatalf("ctl start on node %d: %v", i, err)
		}
	}

	tbl, err := CollectTables(4, allAlive(n), func(i int) (wire.Table, error) {
		return clients[i].Table(4)
	}, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyTable(tbl, inputs, types.RV1, 3); err != nil {
		t.Fatal(err)
	}

	m, err := clients[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := m.Hist("kset_decide_latency_seconds"); h.Count != 1 || h.Min <= 0 {
		t.Errorf("node 0 decide latency: count %d min %v, want the one instance with a positive latency", h.Count, h.Min)
	}
	if got := m.Value("kset_frames_sent_total"); got <= 0 {
		t.Errorf("node 0 kset_frames_sent_total = %d, want > 0", got)
	}
}

// TestClientLogChecksReply pins that Client.Log, like every other ctl call,
// checks that the reply echoes its request: a Log for another start index,
// or with more entries than asked for, is ErrProtocol. A fake node answers
// each PullLog with the given reply mutation.
func TestClientLogChecksReply(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(wire.PullLog) wire.Log
	}{
		{"start+1", func(p wire.PullLog) wire.Log { return wire.Log{Total: 9, Start: p.Start + 1} }},
		{"max+1 entries", func(p wire.PullLog) wire.Log {
			return wire.Log{Total: 9, Start: p.Start, Entries: make([]wire.LogEntry, p.Max+1)}
		}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() {
			served <- fakeLogNode(ln, tc.reply)
		}()
		lg, err := pullLog(ln.Addr().String(), 3, 2)
		ln.Close()
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: Log = %+v, %v; want ErrProtocol", tc.name, lg, err)
		}
		if err := <-served; err != nil {
			t.Errorf("%s: fake node: %v", tc.name, err)
		}
	}
}

// pullLog asks the node at addr for one log window over its own control
// connection.
func pullLog(addr string, start uint64, max int) (wire.Log, error) {
	c, err := DialNode(addr, 5*time.Second)
	if err != nil {
		return wire.Log{}, err
	}
	defer c.Close()
	return c.Log(start, max)
}

// fakeLogNode accepts one ctl connection, reads its Hello and one PullLog,
// and answers with reply.
func fakeLogNode(ln net.Listener, reply func(wire.PullLog) wire.Log) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := wire.ReadMsg(conn); err != nil {
		return err
	}
	m, err := wire.ReadMsg(conn)
	if err != nil {
		return err
	}
	pull, ok := m.(wire.PullLog)
	if !ok {
		return fmt.Errorf("got %v, want pull-log", m.Type())
	}
	return wire.WriteMsg(conn, reply(pull))
}

// TestCtlStartInVoteNamespaceRefused pins that a ctl Start with the top bit
// set, the ACS engine's vote namespace, is refused with the connection and
// starts nothing, while a Start with a low id on a new connection still runs.
func TestCtlStartInVoteNamespaceRefused(t *testing.T) {
	lb, err := StartLoopback(LoopbackConfig{N: 1, K: 1, T: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	start := func(id uint64) error {
		c, err := DialNode(lb.Addrs[0], 5*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		return c.Start(wire.Start{Instance: id, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin), Input: 7})
	}

	const vote = 1<<63 | 5
	if err := start(vote); err == nil {
		t.Fatalf("ctl start of id %#x succeeded, want it refused", uint64(vote))
	}
	if tbl, ok := lb.Nodes[0].Table(vote); ok {
		t.Fatalf("refused id %#x has a table: %+v", uint64(vote), tbl)
	}
	if err := start(5); err != nil {
		t.Fatalf("ctl start of id 5 after the refusal: %v", err)
	}
	tbl := collect(t, lb, 5, allAlive(1), time.Now().Add(10*time.Second))
	if _, err := VerifyTable(tbl, []types.Value{7}, types.RV1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestStartIdempotent checks that a duplicate Start (a retried control
// request) is acknowledged without spawning a second instance.
func TestStartIdempotent(t *testing.T) {
	const n = 3
	lb, err := StartLoopback(LoopbackConfig{N: n, K: 1, T: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	inputs := []types.Value{1, 2, 3}
	startEverywhere(t, lb, 5, 1, 0, theory.ProtoFloodMin, inputs)
	// Duplicate starts, including one with a different input: first wins.
	for i, node := range lb.Nodes {
		err := node.StartInstance(wire.Start{
			Instance: 5, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin), Input: 99,
		})
		if err != nil {
			t.Fatalf("duplicate start on node %d: %v", i, err)
		}
	}
	tbl := collect(t, lb, 5, allAlive(n), time.Now().Add(10*time.Second))
	if _, err := VerifyTable(tbl, inputs, types.RV1, 4); err != nil {
		t.Fatal(err)
	}
	for j, row := range tbl.Rows {
		if row.Value == 99 {
			t.Errorf("row %d decided the duplicate-start input", j)
		}
	}
}

// TestMinimalRetransmitInterval pins the writer-ticker clamp: Config
// validation accepts any positive Retransmit, but 1ns halves to zero and
// time.NewTicker panics on non-positive intervals — a panic that fired on
// the link writer goroutine and took down the whole process. The clamped
// writer must come up and still drive an instance to decision.
func TestMinimalRetransmitInterval(t *testing.T) {
	const n = 2
	lb, err := StartLoopback(LoopbackConfig{N: n, K: 1, T: 0, Seed: 5, Retransmit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	rec, err := lb.RunInstance(wire.Start{Instance: 1, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin)}, []types.Value{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckAll(rec, types.RV1); err != nil {
		t.Fatal(err)
	}
}
