package main

import (
	"fmt"
	"time"

	"kset/internal/acs"
	"kset/internal/cluster"
	"kset/internal/prng"
	"kset/internal/types"
	"kset/internal/wire"
)

// The acs.append workload: 4 nodes with an ACS engine attached, t=1, node 3
// crashed before the first submit — the only configuration in which every
// round closes deterministically (docs/acs.md). Appends are submitted
// round-robin over the survivors with Engine.Submit, a fixed number
// outstanding, and an append is complete when Engine.Closed has reached its
// round on every survivor.
const (
	acsNodes        = 4
	acsT            = 1
	acsCrashed      = 3
	acsOutstanding  = 16
	acsOpsPerSecond = 1200
	// acsSerialPerSecond sizes the one-outstanding probe that follows the
	// traced run on the same cluster.
	acsSerialPerSecond = 100
	// acsPoll is how long the generator sleeps when a poll of Engine.Closed
	// shows no progress. The engine has no completion upcall to offer (it
	// owns the node's decide observer), so completion times carry this
	// resolution.
	acsPoll = 50 * time.Microsecond
)

// acsRegCounters are the registry counters the acs.* metrics derive from.
var acsRegCounters = []string{
	"kset_acs_rounds_total",
	"kset_acs_relays_total",
	"kset_acs_noops_proposed_total",
	"kset_acs_check_failures_total",
}

// acsOp is one append.
type acsOp struct {
	value     types.Value
	proposer  types.ProcessID
	round     uint64
	submit    int64
	submitEnd int64 // Submit returned
	end       int64 // closed on the last survivor; 0 while incomplete
	// closedAt is when each survivor was first seen past the round (traced
	// passes only).
	closedAt [acsNodes - 1]int64
}

// acsCluster is a loopback cluster with one engine per survivor.
type acsCluster struct {
	lb      *cluster.Loopback
	nodes   liveNodes
	engines []*acs.Engine // per survivor, in node-id order
	closed  []uint64      // last Engine.Closed seen, per survivor
	ops     []*acsOp      // every append submitted, warm-up included
	seed    uint64
	traced  bool
}

// startACSCluster brings the cluster up, crashes node 3 and closes one
// warm-up round on every survivor.
func startACSCluster(seed uint64, traced bool) (*acsCluster, error) {
	engines := make([]*acs.Engine, acsNodes)
	var attachErr error
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{
		N: acsNodes, K: acsT + 1, T: acsT, Seed: seed,
		Attach: func(n *cluster.Node) {
			e, err := acs.New(acs.Config{Node: n})
			if err != nil {
				attachErr = err
				return
			}
			engines[n.ID()] = e
		},
	})
	if err == nil && attachErr != nil {
		lb.Close()
		err = attachErr
	}
	if err != nil {
		return nil, fmt.Errorf("start acs loopback: %w", err)
	}
	lb.Crash(acsCrashed)
	c := &acsCluster{lb: lb, seed: seed, traced: traced}
	for i, e := range engines {
		if i != acsCrashed {
			c.nodes = append(c.nodes, lb.Nodes[i])
			c.engines = append(c.engines, e)
		}
	}
	c.closed = make([]uint64, len(c.engines))
	ok, err := c.closedLoop(1, 1, stallFloor)
	if err == nil && !ok {
		err = fmt.Errorf("warm-up round did not close in %v", stallFloor)
	}
	if err != nil {
		lb.Close()
		return nil, err
	}
	return c, nil
}

// closedLoop submits count appends keeping depth of them outstanding, from
// the one generator goroutine, and reports whether all completed before the
// deadline.
func (c *acsCluster) closedLoop(count, depth int, deadline time.Duration) (bool, error) {
	limit := now() + int64(deadline)
	var pending []*acsOp
	issued, completed := 0, 0
	for completed < count {
		progressed := false
		for i, e := range c.engines {
			if cl := e.Closed(); cl > c.closed[i] {
				c.closed[i] = cl
				progressed = true
				if c.traced {
					t := now()
					for _, op := range pending {
						if op.round <= cl && op.closedAt[i] == 0 {
							op.closedAt[i] = t
						}
					}
				}
			}
		}
		everywhere := c.closed[0]
		for _, cl := range c.closed {
			if cl < everywhere {
				everywhere = cl
			}
		}
		kept := pending[:0]
		for _, op := range pending {
			if op.round <= everywhere {
				op.end = now()
				completed++
			} else {
				kept = append(kept, op)
			}
		}
		pending = kept
		for len(pending) < depth && issued < count {
			n := len(c.ops)
			op := &acsOp{
				// Unique per append: the position in the low bits, the seed above.
				value:    types.Value(int64(prng.MixSeed(c.seed, 0)>>40)<<24 | int64(n)),
				proposer: c.nodes[n%len(c.nodes)].ID(),
				submit:   now(),
			}
			r, err := c.engines[n%len(c.engines)].Submit(op.value)
			if err != nil {
				return false, fmt.Errorf("submit append %d: %w", n, err)
			}
			op.round, op.submitEnd = r, now()
			c.ops = append(c.ops, op)
			pending = append(pending, op)
			issued++
			progressed = true
		}
		if !progressed {
			if now() > limit {
				return false, nil
			}
			time.Sleep(acsPoll)
		}
	}
	return true, nil
}

// pageLog pages one survivor's whole ordered log out of Engine.LogWindow.
func pageLog(e *acs.Engine) []wire.LogEntry {
	var all []wire.LogEntry
	for {
		w := e.LogWindow(uint64(len(all)), wire.MaxLogEntries)
		all = append(all, w.Entries...)
		if len(w.Entries) == 0 || uint64(len(all)) >= w.Total {
			return all
		}
	}
}

// verifyACS requires the log identical on every survivor, and every
// submitted value present exactly once, at the round Submit assigned it. It
// returns the number of appends in ops[first:] that are incomplete or not in
// the log as submitted; a log that differs between survivors fails them all.
func verifyACS(logs [][]wire.LogEntry, ops []*acsOp, first int) (failed int, reason string) {
	for i := 1; i < len(logs); i++ {
		same := len(logs[i]) == len(logs[0])
		for j := 0; same && j < len(logs[0]); j++ {
			same = logs[i][j] == logs[0][j]
		}
		if !same {
			return len(ops) - first, fmt.Sprintf("log of survivor %d differs from survivor 0's", i)
		}
	}
	type slot struct {
		round    uint64
		proposer types.ProcessID
	}
	seen := make(map[slot][]types.Value, len(logs[0]))
	for _, e := range logs[0] {
		s := slot{e.Round, e.Proposer}
		seen[s] = append(seen[s], e.Value)
	}
	for i, op := range ops[first:] {
		vals := seen[slot{op.round, op.proposer}]
		var err string
		switch {
		case op.end == 0:
			err = "round not closed on every survivor at the deadline"
		case len(vals) != 1 || vals[0] != op.value:
			err = fmt.Sprintf("log holds %v at round %d proposer %d, want [%d]", vals, op.round, op.proposer, op.value)
		}
		if err != "" {
			failed++
			if reason == "" {
				reason = fmt.Sprintf("append %d: %s", first+i, err)
			}
		}
	}
	if failed == 0 && len(logs[0]) != len(ops) {
		return len(ops) - first, fmt.Sprintf("log holds %d entries for %d appends", len(logs[0]), len(ops))
	}
	return failed, reason
}

// runACS is one pass of acs.append.
func runACS(cfg passConfig) (*pass, error) {
	ops := int(acsOpsPerSecond * cfg.seconds)
	if ops < 1 {
		ops = 1
	}
	p := &pass{attempted: ops, layer: layerValues{}}
	var c *acsCluster
	for since := now(); ; {
		t0 := now()
		var err error
		if c, err = startACSCluster(cfg.seed, cfg.traced); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, secondsSince(t0))
		if !cfg.setupAgain(len(p.setups), since) {
			break
		}
		c.lb.Close()
	}
	defer c.lb.Close()

	names := append(append([]string(nil), linkCounters...), acsRegCounters...)
	before := c.nodes.counters(names)
	decided0 := c.nodes.hist("kset_decide_latency_seconds").Count
	var meter *procMeter
	if cfg.traced {
		meter = startProcMeter(c.nodes.mailboxDepth())
	}
	first := len(c.ops)
	t0 := now()
	ok, err := c.closedLoop(ops, acsOutstanding, cfg.deadline())
	if err != nil {
		return nil, err
	}
	p.runFrom, p.runTo = t0, now()
	if !ok {
		p.failure = fmt.Sprintf("stalled: rounds still open at the %v deadline", cfg.deadline())
	}
	measured := c.ops[first:]
	after := c.nodes.counters(names)
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	p.fail(int(d("kset_acs_check_failures_total")), "the engine's own check of a closed slot failed")
	if cfg.traced {
		meter.finish(p.layer, ops)
		p.layer.set("shard.mailbox_depth_max", float64(meter.gaugePeak))
		c.nodes.linkMetrics(p.layer, before, after, ops)
		// Counters are summed over the survivors; per-append figures are the
		// work of one survivor.
		per := float64(len(c.nodes))
		rounds := d("kset_acs_rounds_total")
		p.layer.set("acs.rounds_per_append", ratio(rounds/per, float64(ops)))
		p.layer.set("acs.vote_instances_per_append",
			ratio(float64(c.nodes.hist("kset_decide_latency_seconds").Count-decided0)/per, float64(ops)))
		p.layer.set("acs.relays_per_round", ratio(d("kset_acs_relays_total"), rounds))
		p.layer.set("acs.noops_per_round", ratio(d("kset_acs_noops_proposed_total"), rounds))
		p.layer.set("acs.frames_per_append", ratio(d("kset_frames_sent_total"), float64(ops)))
		p.layer.set("acs.round_latency_p50_ms", c.nodes.hist("kset_acs_round_latency_seconds").Quantile(0.5)*1e3)
		if ok {
			serial := int(acsSerialPerSecond * cfg.seconds)
			if serial < 1 {
				serial = 1
			}
			at := len(c.ops)
			if ok, err := c.closedLoop(serial, 1, cfg.deadline()); err == nil && ok {
				var lat []float64
				for _, op := range c.ops[at:] {
					lat = append(lat, ms(op.end-op.submit))
				}
				p.layer.set("acs.serial_append_p50_ms", median(lat))
			}
		}
	}
	logs := make([][]wire.LogEntry, len(c.engines))
	for i, e := range c.engines {
		logs[i] = pageLog(e)
	}
	c.lb.Close()

	for _, op := range measured {
		if op.end != 0 {
			p.lat = append(p.lat, ms(op.end-op.submit))
		}
	}
	tv := now()
	failed, reason := verifyACS(logs, c.ops, first)
	p.verify = secondsSince(tv)
	// Appends of the serial probe are verified too but are not operations.
	if failed > ops {
		failed = ops
	}
	p.fail(failed, reason)
	if cfg.traced {
		acsPhases(p, measured)
	}
	return p, nil
}

// acsPhases derives the per-phase spans of a traced pass: the Submit call,
// from its return to the first survivor's close, and from there to the last
// survivor's (the close skew). Per append the three add up to its latency,
// and the budget is their make-up in the median append.
func acsPhases(p *pass, ops []*acsOp) {
	var submitMs, toFirst, skew []float64
	stride := traceStride(len(ops))
	for i, op := range ops {
		if op.end == 0 {
			continue
		}
		firstClose := op.end
		for _, t := range op.closedAt {
			if t != 0 && t < firstClose {
				firstClose = t
			}
		}
		if firstClose < op.submitEnd {
			firstClose = op.submitEnd
		}
		submitMs = append(submitMs, ms(op.submitEnd-op.submit))
		toFirst = append(toFirst, ms(firstClose-op.submitEnd))
		skew = append(skew, ms(op.end-firstClose))
		if i%stride == 0 {
			p.spans = append(p.spans,
				span{"op", i, "", op.submit, op.end},
				span{"acs.submit_call", i, "op", op.submit, op.submitEnd},
				span{"acs.submit_to_first_close", i, "op", op.submitEnd, firstClose},
				span{"acs.close_skew", i, "op", firstClose, op.end})
		}
	}
	// The budget first: the medians below sort their slices.
	rows := medianOperation(submitMs, toFirst, skew)
	p.budget = append(p.budget,
		budgetRow{"acs.submit_call", rows[0]},
		budgetRow{"submit -> first close", rows[1]},
		budgetRow{"acs.close_skew (first -> last)", rows[2]})
	for i := range submitMs {
		submitMs[i] *= 1e3
	}
	p.layer.set("acs.submit_call_us_p50", median(submitMs))
	p.layer.set("acs.close_skew_ms_p50", median(skew))
	p.layer.set("driver.append_p99_ms", quantile(p.lat, 0.99))
}
