package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"kset/internal/checker"
	"kset/internal/obs"
	"kset/internal/types"
	"kset/internal/wire"
)

// ErrProtocol reports an out-of-contract reply on a control connection.
var ErrProtocol = errors.New("cluster: control protocol violation")

// Client is a controller connection to one node (ksetctl and the tests use
// it). It speaks strict request-reply: every request has exactly one reply,
// so a Client must not be shared between concurrent requesters.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader // replies are read through it, one syscall a reply
	timeout time.Duration
}

// DialNode opens a control connection to a node. timeout bounds the dial and
// each subsequent request round trip; zero selects 5s.
func DialNode(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), timeout: timeout}
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := wire.WriteMsg(conn, wire.Hello{From: -1, Role: wire.RoleCtl}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// Close closes the control connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and reads one reply under the deadline.
func (c *Client) roundTrip(req wire.Msg) (wire.Msg, error) {
	deadline := time.Now().Add(c.timeout)
	if err := c.conn.SetWriteDeadline(deadline); err != nil {
		return nil, err
	}
	if err := wire.WriteMsg(c.conn, req); err != nil {
		return nil, err
	}
	if err := c.conn.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	return wire.ReadMsg(c.br)
}

// Start asks the node to start one consensus instance with the given local
// input, blocking until the node acknowledges it.
func (c *Client) Start(s wire.Start) error {
	reply, err := c.roundTrip(s)
	if err != nil {
		return err
	}
	ack, ok := reply.(wire.StartAck)
	if !ok || ack.Instance != s.Instance {
		return fmt.Errorf("%w: start reply %#v", ErrProtocol, reply)
	}
	return nil
}

// Table pulls the node's current decision table for an instance.
func (c *Client) Table(instance uint64) (wire.Table, error) {
	reply, err := c.roundTrip(wire.PullTable{Instance: instance})
	if err != nil {
		return wire.Table{}, err
	}
	tbl, ok := reply.(wire.Table)
	if !ok || tbl.Instance != instance {
		return wire.Table{}, fmt.Errorf("%w: table reply %#v", ErrProtocol, reply)
	}
	return tbl, nil
}

// Metrics is one node's registry as pulled over a control connection:
// counters and gauges by registry name (labels included), histograms as obs
// snapshots so that callers merge and take quantiles with the obs functions.
type Metrics struct {
	Values []wire.MetricValue // sorted by name
	Hists  []obs.HistSnapshot // sorted by name
}

// Value returns the named counter or gauge, 0 if the node reported none.
func (m Metrics) Value(name string) int64 {
	for _, v := range m.Values {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
}

// Hist returns the named histogram, or false if the node reported none.
func (m Metrics) Hist(name string) (obs.HistSnapshot, bool) {
	for _, h := range m.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return obs.HistSnapshot{}, false
}

// Metrics pulls the node's metric registry.
func (c *Client) Metrics() (Metrics, error) {
	reply, err := c.roundTrip(wire.PullMetrics{})
	if err != nil {
		return Metrics{}, err
	}
	wm, ok := reply.(wire.Metrics)
	if !ok {
		return Metrics{}, fmt.Errorf("%w: metrics reply %#v", ErrProtocol, reply)
	}
	m := Metrics{Values: wm.Values, Hists: make([]obs.HistSnapshot, len(wm.Hists))}
	for i, h := range wm.Hists {
		m.Hists[i] = histFromWire(h)
	}
	return m, nil
}

// SweepJob hands one grid-sweep shard to the node and blocks for its records.
// The reply's record count is the node's verdict: fewer records than the job
// asked for means the node rejected or could not complete the shard, and the
// caller should run it elsewhere.
func (c *Client) SweepJob(job wire.SweepJob) (wire.SweepResult, error) {
	reply, err := c.roundTrip(job)
	if err != nil {
		return wire.SweepResult{}, err
	}
	res, ok := reply.(wire.SweepResult)
	if !ok || res.Job != job.Job {
		return wire.SweepResult{}, fmt.Errorf("%w: sweep reply %#v", ErrProtocol, reply)
	}
	return res, nil
}

// AcsSubmit hands one value to the node's ACS engine for inclusion in an
// upcoming round, returning the round the value was assigned to.
func (c *Client) AcsSubmit(v types.Value) (uint64, error) {
	reply, err := c.roundTrip(wire.AcsSubmit{Value: v})
	if err != nil {
		return 0, err
	}
	ack, ok := reply.(wire.AcsAck)
	if !ok {
		return 0, fmt.Errorf("%w: acs submit reply %#v", ErrProtocol, reply)
	}
	if ack.Round == 0 {
		return 0, fmt.Errorf("%w: acs submit rejected (node not serving acs?)", ErrProtocol)
	}
	return ack.Round, nil
}

// AcsRound pulls the node's view of one ACS round: per-proposer slot status
// and, once closed, the agreed membership vector.
func (c *Client) AcsRound(round uint64) (wire.AcsRound, error) {
	reply, err := c.roundTrip(wire.PullAcsRound{Round: round})
	if err != nil {
		return wire.AcsRound{}, err
	}
	ar, ok := reply.(wire.AcsRound)
	if !ok || ar.Round != round {
		return wire.AcsRound{}, fmt.Errorf("%w: acs round reply %#v", ErrProtocol, reply)
	}
	return ar, nil
}

// Log pulls up to max ordered-log entries starting at index start, plus the
// node's current log length. A reply for another start index or with more
// than max entries is a protocol violation: callers line up several nodes'
// entries by position.
func (c *Client) Log(start uint64, max int) (wire.Log, error) {
	reply, err := c.roundTrip(wire.PullLog{Start: start, Max: max})
	if err != nil {
		return wire.Log{}, err
	}
	lg, ok := reply.(wire.Log)
	if !ok || lg.Start != start || len(lg.Entries) > max {
		return wire.Log{}, fmt.Errorf("%w: log reply %#v", ErrProtocol, reply)
	}
	return lg, nil
}

// BuildRecord converts one node's decision table into the RunRecord shape
// internal/checker validates. Undecided rows are marked faulty: in a
// finished run the only processes without a decision are the failed ones,
// and the checker's own Validate rejects the record if that exceeds t — so
// an incomplete run cannot masquerade as a clean one.
func BuildRecord(tbl wire.Table, inputs []types.Value, seed uint64) (*types.RunRecord, error) {
	n := len(tbl.Rows)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty decision table for instance %d", ErrProtocol, tbl.Instance)
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("%w: %d inputs for %d table rows", ErrProtocol, len(inputs), n)
	}
	rec := &types.RunRecord{
		N:         n,
		T:         tbl.T,
		K:         tbl.K,
		Model:     types.MPCR,
		Inputs:    append([]types.Value(nil), inputs...),
		Faulty:    make([]bool, n),
		Decided:   make([]bool, n),
		Decisions: make([]types.Value, n),
		Seed:      seed,
	}
	for i, row := range tbl.Rows {
		rec.Decided[i] = row.Decided
		rec.Decisions[i] = row.Value
		rec.Faulty[i] = !row.Decided
	}
	return rec, nil
}

// VerifyTable builds the record for one node's table and runs the full
// checker (termination, agreement, and the given validity condition).
func VerifyTable(tbl wire.Table, inputs []types.Value, validity types.Validity, seed uint64) (*types.RunRecord, error) {
	rec, err := BuildRecord(tbl, inputs, seed)
	if err != nil {
		return nil, err
	}
	if err := checker.CheckAll(rec, validity); err != nil {
		return rec, err
	}
	return rec, nil
}
