package main

import (
	"fmt"

	"kset/internal/cluster"
	"kset/internal/obs"
)

// liveNodes are the surviving nodes of a loopback cluster, read through
// their public metric registries.
type liveNodes []*cluster.Node

// linkCounters are the registry counters the link metrics derive from.
var linkCounters = []string{
	"kset_frames_sent_total",
	"kset_msgs_sent_total",
	"kset_msgs_recv_total",
	"kset_acks_piggybacked_total",
	"kset_retransmits_total",
	"kset_conn_failures_total",
}

// counters sums each named counter over the nodes.
func (ns liveNodes) counters(names []string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, name := range names {
		for _, n := range ns {
			out[name] += n.Metrics().Counter(name).Value()
		}
	}
	return out
}

// hist merges one histogram over the nodes.
func (ns liveNodes) hist(name string) obs.HistSnapshot {
	snaps := make([]obs.HistSnapshot, len(ns))
	for i, n := range ns {
		snaps[i] = n.Metrics().Histogram(name, obs.DefaultLatencyBounds()).Snapshot(name)
	}
	return obs.MergeSnapshots(snaps)
}

// mailboxDepth returns a reader of the deepest shard mailbox on any node; the
// gauges are looked up once, the sampler calls the reader every 10 ms.
func (ns liveNodes) mailboxDepth() func() int64 {
	var gauges []*obs.Gauge
	for _, n := range ns {
		for s := 0; s < n.Shards(); s++ {
			gauges = append(gauges, n.Metrics().Gauge(fmt.Sprintf(`kset_shard_mailbox_depth{shard="%d"}`, s)))
		}
	}
	return func() int64 {
		var deepest int64
		for _, g := range gauges {
			if d := g.Value(); d > deepest {
				deepest = d
			}
		}
		return deepest
	}
}

// activeInstances sums the live (not yet evicted) instances over the nodes.
func (ns liveNodes) activeInstances() int {
	total := 0
	for _, n := range ns {
		total += n.ActiveInstances()
	}
	return total
}

// linkMetrics writes the link.* metrics from counter deltas over ops
// operations, and the shard gauges read at the end of the run.
func (ns liveNodes) linkMetrics(lv layerValues, before, after map[string]int64, ops int) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	lv.set("link.msgs_per_frame", ratio(d("kset_msgs_sent_total"), d("kset_frames_sent_total")))
	lv.set("link.acks_piggybacked_share", ratio(d("kset_acks_piggybacked_total"), d("kset_msgs_recv_total")))
	lv.set("link.retransmits_per_instance", ratio(d("kset_retransmits_total"), float64(ops)))
	lv.set("link.dial_failures", d("kset_conn_failures_total"))
	lv.set("link.ack_rtt_p50_us", ns.hist("kset_ack_rtt_seconds").Quantile(0.5)*1e6)
	lv.set("shard.instances_active_end", float64(ns.activeInstances()))
}
