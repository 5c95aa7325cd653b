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

// call sends req and reads one reply under the deadline. The reply must be
// an R that echoes req (echoes nil: any R does); anything else is
// ErrProtocol.
func call[R wire.Msg](c *Client, req wire.Msg, echoes func(R) bool) (R, error) {
	var zero R
	deadline := time.Now().Add(c.timeout)
	if err := c.conn.SetWriteDeadline(deadline); err != nil {
		return zero, err
	}
	if err := wire.WriteMsg(c.conn, req); err != nil {
		return zero, err
	}
	if err := c.conn.SetReadDeadline(deadline); err != nil {
		return zero, err
	}
	reply, err := wire.ReadMsg(c.br)
	if err != nil {
		return zero, err
	}
	r, ok := reply.(R)
	if !ok || (echoes != nil && !echoes(r)) {
		return zero, fmt.Errorf("%w: reply %#v to %T", ErrProtocol, reply, req)
	}
	return r, nil
}

// Start asks the node to start one consensus instance with the given local
// input, blocking until the node acknowledges it.
func (c *Client) Start(s wire.Start) error {
	_, err := call(c, s, func(a wire.StartAck) bool { return a.Instance == s.Instance })
	return err
}

// Table pulls the node's current decision table for an instance.
func (c *Client) Table(instance uint64) (wire.Table, error) {
	return call(c, wire.PullTable{Instance: instance}, func(t wire.Table) bool { return t.Instance == instance })
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
	wm, err := call[wire.Metrics](c, wire.PullMetrics{}, nil)
	if err != nil {
		return Metrics{}, err
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
	return call(c, job, func(r wire.SweepResult) bool { return r.Job == job.Job })
}

// AcsSubmit hands one value to the node's ACS engine for inclusion in an
// upcoming round, returning the round the value was assigned to. A node
// without an engine closes the connection on the request, so that case is
// the read error.
func (c *Client) AcsSubmit(v types.Value) (uint64, error) {
	ack, err := call[wire.AcsAck](c, wire.AcsSubmit{Value: v}, nil)
	if err != nil {
		return 0, err
	}
	if ack.Round == 0 {
		return 0, fmt.Errorf("cluster: the node's acs engine refused value %d", v)
	}
	return ack.Round, nil
}

// AcsRound pulls the node's view of one ACS round: per-proposer slot status
// and, once closed, the agreed membership vector.
func (c *Client) AcsRound(round uint64) (wire.AcsRound, error) {
	return call(c, wire.PullAcsRound{Round: round}, func(r wire.AcsRound) bool { return r.Round == round })
}

// Log pulls up to max ordered-log entries starting at index start, plus the
// node's current log length. A reply for another start index or with more
// than max entries is a protocol violation: callers line up several nodes'
// entries by position.
func (c *Client) Log(start uint64, max int) (wire.Log, error) {
	return call(c, wire.PullLog{Start: start, Max: max}, func(l wire.Log) bool {
		return l.Start == start && len(l.Entries) <= max
	})
}

// pollEvery is Poll's interval between calls of done.
const pollEvery = 5 * time.Millisecond

// errDeadline is Poll's error once the deadline passes with done false.
var errDeadline = errors.New("not done at deadline")

// Poll calls done every 5 ms until it reports true, fails, or the deadline
// passes; done runs at least once. It is the controller's one wait.
func Poll(deadline time.Time, done func() (bool, error)) error {
	for {
		ok, err := done()
		if ok || err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errDeadline
		}
		time.Sleep(pollEvery)
	}
}

// CollectTables waits until every live node's decision table for instance
// has every live row decided, and returns the table once the copies agree on
// every live row. live[i] marks node i as running the instance; table(i)
// pulls node i's current table (empty while it has none). A row of a node
// outside live is neither awaited nor compared, so a crashed node's row
// stays undecided in the result.
func CollectTables(instance uint64, live []bool, table func(i int) (wire.Table, error), deadline time.Time) (wire.Table, error) {
	var agreed wire.Table
	ref := -1
	for i, alive := range live {
		if !alive {
			continue
		}
		var tbl wire.Table
		err := Poll(deadline, func() (bool, error) {
			var err error
			if tbl, err = table(i); err != nil || len(tbl.Rows) != len(live) {
				return false, err
			}
			for j, a := range live {
				if a && !tbl.Rows[j].Decided {
					return false, nil
				}
			}
			return true, nil
		})
		if err != nil {
			return wire.Table{}, fmt.Errorf("cluster: instance %d on node %d: %w: rows %+v", instance, i, err, tbl.Rows)
		}
		if ref < 0 {
			agreed, ref = tbl, i
			continue
		}
		for j, a := range live {
			if a && tbl.Rows[j] != agreed.Rows[j] {
				return wire.Table{}, fmt.Errorf("cluster: instance %d: row %d is %+v on node %d but %+v on node %d",
					instance, j, agreed.Rows[j], ref, tbl.Rows[j], i)
			}
		}
	}
	if ref < 0 {
		return wire.Table{}, fmt.Errorf("%w: instance %d has no live node", ErrClosed, instance)
	}
	return agreed, nil
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
