package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"kset/internal/checker"
	"kset/internal/cluster"
	"kset/internal/prng"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// decideSpec describes one decide.* workload: FloodMin instances started
// with Node.StartInstance on every live node of a loopback cluster (real TCP
// on 127.0.0.1), complete when every live node holds a decided row for every
// live node.
type decideSpec struct {
	n, k, t int
	// crashed nodes are killed with Loopback.Crash before the first start.
	crashed []int
	// outstanding is the closed loop's instances in flight; rate is the open
	// loop's instances due per second. Exactly one is set.
	outstanding int
	rate        float64
	// opsPerSecond sizes the run: the operation count is opsPerSecond ×
	// -seconds, a fixed count rather than a fixed duration because the
	// crashed path slows down as state accumulates.
	opsPerSecond float64
}

// warmupInstances run through the cluster before the clock starts; they are
// part of set-up.
const warmupInstances = 1000

// warmupOutstanding is the closed-loop depth of the warm-up on every
// workload, the open-loop one included.
const warmupOutstanding = 64

// tracker follows every instance from its start to its complete table
// through the nodes' decide observers. Operations are numbered from 0, the
// warm-up first; operation op is cluster instance op+1.
type tracker struct {
	spec   decideSpec
	seed   uint64
	live   []int // ids of the live nodes
	slotOf []int // node id -> index in live, -1 for a crashed node
	traced bool

	// rows holds, per operation, per observing live node, per live node, the
	// decided value plus one (0: no row yet). remaining counts the rows an
	// operation still lacks.
	rows      []atomic.Int32
	remaining []atomic.Int32
	start     []int64        // due (open loop) or submit (closed loop) time
	end       []atomic.Int64 // time the last row arrived; 0 while incomplete
	completed atomic.Int64
	// done carries one token per completed operation to the closed-loop
	// generator. Its capacity is the loop's depth, so no token of a closed
	// loop is ever dropped.
	done chan struct{}

	// Written by traced passes only.
	rowT      []int64 // arrival time of each row, indexed like rows
	submit    []int64 // time the generator began the StartInstance calls
	submitEnd []int64 // time the last StartInstance call returned
	startCall []int32 // duration of each StartInstance call, per op per live node
}

func newTracker(spec decideSpec, seed uint64, ops int, traced bool) *tracker {
	tr := &tracker{spec: spec, seed: seed, traced: traced, slotOf: make([]int, spec.n)}
	for i := range tr.slotOf {
		tr.slotOf[i] = -1
	}
	for i := 0; i < spec.n; i++ {
		dead := false
		for _, c := range spec.crashed {
			dead = dead || c == i
		}
		if !dead {
			tr.slotOf[i] = len(tr.live)
			tr.live = append(tr.live, i)
		}
	}
	l := len(tr.live)
	tr.rows = make([]atomic.Int32, ops*l*l)
	tr.remaining = make([]atomic.Int32, ops)
	for i := range tr.remaining {
		tr.remaining[i].Store(int32(l * l))
	}
	tr.start = make([]int64, ops)
	tr.end = make([]atomic.Int64, ops)
	depth := spec.outstanding
	if depth < warmupOutstanding {
		depth = warmupOutstanding
	}
	tr.done = make(chan struct{}, depth)
	// Allocated on untraced passes too, where nothing writes them: the
	// driver's live heap sets the garbage collector's pace for the nodes it
	// hosts, and a traced pass must differ from its untraced reference by
	// the timestamps alone.
	tr.rowT = make([]int64, ops*l*l)
	tr.submit = make([]int64, ops)
	tr.submitEnd = make([]int64, ops)
	tr.startCall = make([]int32, ops*l)
	return tr
}

// observer returns the decide observer of one live node. An untraced pass
// takes one timestamp per completed operation here and nothing more.
func (tr *tracker) observer(self int) func(id uint64, node types.ProcessID, value types.Value) {
	l := len(tr.live)
	me := tr.slotOf[self]
	return func(id uint64, node types.ProcessID, value types.Value) {
		op := int(id) - 1
		if op < 0 || op >= len(tr.remaining) || int(node) >= len(tr.slotOf) || tr.slotOf[node] < 0 {
			return // the ctl probe's instances, outside the tracked range
		}
		slot := (op*l+me)*l + tr.slotOf[node]
		if !tr.rows[slot].CompareAndSwap(0, int32(value)+1) {
			return
		}
		if tr.traced {
			tr.rowT[slot] = now()
		}
		if tr.remaining[op].Add(-1) == 0 {
			tr.end[op].Store(now())
			tr.completed.Add(1)
			select {
			case tr.done <- struct{}{}:
			default: // open loop: nobody listens, and the token is not needed
			}
		}
	}
}

// input derives node's input to operation op from the workload seed.
func (tr *tracker) input(op, node int) types.Value {
	return types.Value(prng.MixSeed(tr.seed, uint64(op), uint64(node)) % 1000)
}

// submitOp starts operation op on every live node, from the generator
// goroutine.
func (tr *tracker) submitOp(lb *cluster.Loopback, op int) error {
	t := now()
	if tr.traced {
		tr.submit[op] = t
	}
	for i, id := range tr.live {
		err := lb.Nodes[id].StartInstance(wire.Start{
			Instance: uint64(op) + 1,
			K:        tr.spec.k,
			T:        tr.spec.t,
			Proto:    uint8(theory.ProtoFloodMin),
			Input:    tr.input(op, id),
		})
		if err != nil {
			return fmt.Errorf("start instance %d on node %d: %w", op+1, id, err)
		}
		if tr.traced {
			t1 := now()
			tr.startCall[op*len(tr.live)+i] = int32(t1 - t)
			t = t1
		}
	}
	if tr.traced {
		tr.submitEnd[op] = t
	}
	return nil
}

// closedLoop runs operations [first, first+count) keeping depth of them in
// flight, and reports whether they all completed before the deadline.
func (tr *tracker) closedLoop(lb *cluster.Loopback, first, count, depth int, deadline time.Duration) (bool, error) {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	issued := 0
	submitNext := func() error {
		op := first + issued
		issued++
		tr.start[op] = now()
		return tr.submitOp(lb, op)
	}
	for issued < count && issued < depth {
		if err := submitNext(); err != nil {
			return false, err
		}
	}
	for completed := 0; completed < count; completed++ {
		select {
		case <-tr.done:
		case <-timer.C:
			return false, nil
		}
		if issued < count {
			if err := submitNext(); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// openLoop starts operations [first, first+count) on a fixed schedule
// whatever the cluster does, timing each from the instant it was due, and
// returns how late the generator ran on each.
func (tr *tracker) openLoop(lb *cluster.Loopback, first, count int, deadline time.Duration) (late []float64, ok bool, err error) {
	interval := float64(time.Second) / tr.spec.rate
	late = make([]float64, count)
	before := tr.completed.Load()
	t0 := now()
	for i := 0; i < count; i++ {
		due := t0 + int64(float64(i)*interval)
		if wait := due - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		tr.start[first+i] = due
		late[i] = ms(now() - due)
		if err := tr.submitOp(lb, first+i); err != nil {
			return late, false, err
		}
	}
	for tr.completed.Load()-before < int64(count) {
		if now()-t0 > int64(deadline) {
			return late, false, nil
		}
		time.Sleep(time.Millisecond)
	}
	return late, true, nil
}

// verify rebuilds every live node's table for operations [first,
// first+count) from the observer rows and runs the checker on it: RV1, at
// most k values, inputs derived from the seed. It returns the number of
// operations that are incomplete or fail the check.
func (tr *tracker) verify(first, count int) (failed int, reason string) {
	l := len(tr.live)
	rec := &types.RunRecord{
		N: tr.spec.n, T: tr.spec.t, K: tr.spec.k, Model: types.MPCR,
		Inputs:    make([]types.Value, tr.spec.n),
		Faulty:    make([]bool, tr.spec.n),
		Decided:   make([]bool, tr.spec.n),
		Decisions: make([]types.Value, tr.spec.n),
		Seed:      tr.seed,
	}
	for op := first; op < first+count; op++ {
		var err error
		if tr.end[op].Load() == 0 {
			err = fmt.Errorf("table incomplete at the deadline")
		}
		for node := 0; node < tr.spec.n; node++ {
			rec.Inputs[node] = tr.input(op, node)
		}
		for me := 0; me < l && err == nil; me++ {
			for node := 0; node < tr.spec.n; node++ {
				rec.Faulty[node], rec.Decided[node], rec.Decisions[node] = true, false, 0
				if s := tr.slotOf[node]; s >= 0 {
					if v := tr.rows[(op*l+me)*l+s].Load(); v != 0 {
						rec.Faulty[node], rec.Decided[node], rec.Decisions[node] = false, true, types.Value(v-1)
					}
				}
			}
			err = checker.CheckAll(rec, types.RV1)
		}
		if err != nil {
			failed++
			if reason == "" {
				reason = fmt.Sprintf("instance %d: %v", op+1, err)
			}
		}
	}
	return failed, reason
}

// startDecideCluster brings up the loopback cluster with tr's observers
// attached, crashes the spec's dead nodes and completes the warm-up, which
// is operations [first, first+warmupInstances).
func startDecideCluster(tr *tracker, first int) (*cluster.Loopback, error) {
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{
		N: tr.spec.n, K: tr.spec.k, T: tr.spec.t, Seed: tr.seed,
		Attach: func(n *cluster.Node) {
			if tr.slotOf[n.ID()] >= 0 {
				n.SetDecideObserver(tr.observer(int(n.ID())))
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("start loopback: %w", err)
	}
	for _, c := range tr.spec.crashed {
		lb.Crash(c)
	}
	ok, err := tr.closedLoop(lb, first, warmupInstances, warmupOutstanding, stallFloor)
	if err == nil && !ok {
		err = fmt.Errorf("warm-up of %d instances did not complete in %v", warmupInstances, stallFloor)
	}
	if err != nil {
		lb.Close()
		return nil, err
	}
	return lb, nil
}

// runDecide is one pass of a decide.* workload.
func runDecide(spec decideSpec, cfg passConfig) (*pass, error) {
	ops := int(spec.opsPerSecond * cfg.seconds)
	if ops < 1 {
		ops = 1
	}
	p := &pass{attempted: ops, layer: layerValues{}}

	// One tracker serves every set-up: each uses a fresh range of warm-up
	// operations, and the measured ones follow the last.
	tr := newTracker(spec, cfg.seed, maxSetups*warmupInstances+ops, cfg.traced)
	var lb *cluster.Loopback
	first := 0
	for since := now(); ; {
		t0 := now()
		var err error
		if lb, err = startDecideCluster(tr, first); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, secondsSince(t0))
		first += warmupInstances
		if !cfg.setupAgain(len(p.setups), since) {
			break
		}
		lb.Close()
	}
	defer lb.Close()
	nodes := make(liveNodes, len(tr.live))
	for i, id := range tr.live {
		nodes[i] = lb.Nodes[id]
	}

	var meter *procMeter
	var before map[string]int64
	if cfg.traced {
		before = nodes.counters(linkCounters)
		meter = startProcMeter(nodes.mailboxDepth())
	}
	var late []float64
	var ok bool
	var err error
	t0 := now()
	if spec.rate > 0 {
		late, ok, err = tr.openLoop(lb, first, ops, cfg.deadline())
	} else {
		ok, err = tr.closedLoop(lb, first, ops, spec.outstanding, cfg.deadline())
	}
	if err != nil {
		return nil, err
	}
	p.runFrom, p.runTo = t0, now()
	if !ok {
		p.failure = fmt.Sprintf("stalled: %d of %d instances incomplete at the %v deadline",
			first+ops-int(tr.completed.Load()), ops, cfg.deadline())
	}
	if cfg.traced {
		meter.finish(p.layer, ops)
		p.layer.set("shard.mailbox_depth_max", float64(meter.gaugePeak))
		after := nodes.counters(linkCounters)
		nodes.linkMetrics(p.layer, before, after, ops)
		p.layer.set("link.frames_per_instance",
			ratio(float64(after["kset_frames_sent_total"]-before["kset_frames_sent_total"]), float64(ops)))
		p.layer.set("instance.local_decide_p50_ms", nodes.hist("kset_decide_latency_seconds").Quantile(0.5)*1e3)
		if ok {
			probeCtl(p.layer, lb, tr)
		}
	}
	// Stop the node goroutines before verifying: after a stall they would
	// otherwise keep retransmitting beside the checker.
	lb.Close()

	for op := first; op < first+ops; op++ {
		if end := tr.end[op].Load(); end != 0 {
			p.lat = append(p.lat, ms(end-tr.start[op]))
		}
	}
	tv := now()
	failed, reason := tr.verify(first, ops)
	p.verify = secondsSince(tv)
	p.fail(failed, reason)
	if cfg.traced {
		tr.phases(p, first, ops, late)
	}
	return p, nil
}

// phases derives the per-phase spans of a traced pass: the StartInstance
// calls, submit to the last live node's own decision, and from there to the
// last table row anywhere. Per operation the three (plus the generator's
// lateness in an open loop) add up to its latency exactly, and the budget is
// their make-up in the median operation.
func (tr *tracker) phases(p *pass, first, count int, late []float64) {
	l := len(tr.live)
	var calls, lateMs, submitMs, toLocal, toTable []float64
	stride := traceStride(count)
	for op := first; op < first+count; op++ {
		end := tr.end[op].Load()
		if end == 0 {
			continue
		}
		lastLocal := tr.submitEnd[op]
		for me := 0; me < l; me++ {
			if t := tr.rowT[(op*l+me)*l+me]; t > lastLocal {
				lastLocal = t
			}
		}
		for i := 0; i < l; i++ {
			calls = append(calls, float64(tr.startCall[op*l+i])/1e3)
		}
		if late != nil {
			lateMs = append(lateMs, late[op-first])
		} else {
			lateMs = append(lateMs, 0)
		}
		submitMs = append(submitMs, ms(tr.submitEnd[op]-tr.submit[op]))
		toLocal = append(toLocal, ms(lastLocal-tr.submitEnd[op]))
		toTable = append(toTable, ms(end-lastLocal))
		if (op-first)%stride == 0 {
			id := op - first
			p.spans = append(p.spans, span{"op", id, "", tr.start[op], end})
			t := tr.submit[op]
			for i := 0; i < l; i++ {
				d := int64(tr.startCall[op*l+i])
				p.spans = append(p.spans, span{"node.start_call", id, "op", t, t + d})
				t += d
			}
			p.spans = append(p.spans,
				span{"phase.start_to_local", id, "op", tr.submitEnd[op], lastLocal},
				span{"phase.local_to_table", id, "op", lastLocal, end})
		}
	}
	// The budget first: the medians below sort their slices.
	rows := medianOperation(lateMs, submitMs, toLocal, toTable)
	if late != nil {
		p.layer.set("driver.gen_late_p99_ms", quantile(late, 0.99))
		p.budget = append(p.budget, budgetRow{"driver.gen_late (due -> submit)", rows[0]})
	}
	p.budget = append(p.budget,
		budgetRow{"node.start_call (all live nodes)", rows[1]},
		budgetRow{"phase.start_to_local", rows[2]},
		budgetRow{"phase.local_to_table", rows[3]})
	p.layer.set("node.start_call_us_p50", median(calls))
	p.layer.set("phase.start_to_local_ms_p50", median(toLocal))
	p.layer.set("phase.local_to_table_ms_p50", median(toTable))
	p.layer.set("driver.table_p99_ms", quantile(p.lat, 0.99))
	p.layer.set("driver.table_max_ms", quantile(p.lat, 1))
}

// probeCtl times what a ksetctl user pays on top of the engine: Start and
// PullTable round trips over cluster.Client, one connection per live node,
// one request outstanding.
func probeCtl(lv layerValues, lb *cluster.Loopback, tr *tracker) {
	const instances = 300
	var startUs, tableUs []float64
	clients := make([]*cluster.Client, 0, len(tr.live))
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	for _, id := range tr.live {
		c, err := cluster.DialNode(lb.Addrs[id], time.Second)
		if err != nil {
			return // the metrics stay 0; the probe is not an operation
		}
		clients = append(clients, c)
	}
	base := uint64(len(tr.remaining)) + 1 // ids the tracker ignores
	for i := uint64(0); i < instances; i++ {
		for j, c := range clients {
			t0 := now()
			err := c.Start(wire.Start{
				Instance: base + i, K: tr.spec.k, T: tr.spec.t,
				Proto: uint8(theory.ProtoFloodMin), Input: types.Value(j),
			})
			if err != nil {
				return
			}
			startUs = append(startUs, float64(now()-t0)/1e3)
		}
		for _, c := range clients {
			t0 := now()
			if _, err := c.Table(base + i); err != nil {
				return
			}
			tableUs = append(tableUs, float64(now()-t0)/1e3)
		}
	}
	lv.set("ctl.start_rtt_us_p50", median(startUs))
	lv.set("ctl.table_rtt_us_p50", median(tableUs))
}
