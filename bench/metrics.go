package main

// The metric and workload names fixed here are the ones BENCHMARK.json
// declares; bench_test.go asserts the two sets are equal. Later issues cite
// numbers by these names.

// family groups the workloads that exercise the same layers.
type family uint8

const (
	famDecide family = 1 << iota // decide.*: cluster engine
	famACS                       // acs.append: ACS log over the cluster engine
	famSweep                     // sweep.*: grid cells through the sweep pool
	famLive   = famDecide | famACS
	famAll    = famLive | famSweep
)

// metricDef declares one metric. in is the set of workload families whose
// traced run measures it; on the others it reads 0 (the layer is not
// executed there).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	in     family
}

// endToEnd are the metrics of an untraced run, the same three on every
// workload. One operation is an instance (decide.*), an append (acs.append)
// or a grid cell (sweep.*); README.md maps them to the per-workload names
// the issue uses (instances_per_s, table_p50_ms, appends_per_s, ...).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", in: famAll},
	{Name: "op_latency_ms", Unit: "ms", Better: "lower", in: famAll},
	{Name: "setup_s", Unit: "s", Better: "lower", in: famAll},
}

// perLayer are the metrics of a traced run, grouped by the module that is
// the layer.
var perLayer = []metricDef{
	// wire: probe over AppendBatchFrame/DecodeBatchInto, 64 msgs + 16 acks.
	{"wire.encode_ns_per_msg", "ns", "lower", famLive},
	{"wire.decode_ns_per_msg", "ns", "lower", famLive},
	{"wire.encode_allocs_per_frame", "count", "lower", famLive},
	// cluster link: registry counters, measured run only.
	{"link.frames_per_instance", "count", "lower", famDecide},
	{"link.msgs_per_frame", "count", "higher", famLive},
	{"link.acks_piggybacked_share", "ratio", "higher", famLive},
	{"link.retransmits_per_instance", "count", "lower", famLive},
	{"link.dial_failures", "count", "lower", famLive},
	{"link.ack_rtt_p50_us", "us", "lower", famLive},
	// cluster node and control plane.
	{"node.start_call_us_p50", "us", "lower", famDecide},
	{"ctl.start_rtt_us_p50", "us", "lower", famDecide},
	{"ctl.table_rtt_us_p50", "us", "lower", famDecide},
	// cluster shard.
	{"shard.mailbox_depth_max", "count", "lower", famLive},
	{"shard.instances_active_end", "count", "lower", famLive},
	// cluster instance and protocols/mp.
	{"instance.local_decide_p50_ms", "ms", "lower", famDecide},
	{"phase.start_to_local_ms_p50", "ms", "lower", famDecide},
	{"phase.local_to_table_ms_p50", "ms", "lower", famDecide},
	{"proto.floodmin_run_us", "us", "lower", famDecide},
	{"proto.floodmin_msgs_per_run", "count", "lower", famDecide},
	// acs.
	{"acs.submit_call_us_p50", "us", "lower", famACS},
	{"acs.close_skew_ms_p50", "ms", "lower", famACS},
	{"acs.rounds_per_append", "count", "lower", famACS},
	{"acs.vote_instances_per_append", "count", "lower", famACS},
	{"acs.relays_per_round", "count", "lower", famACS},
	{"acs.noops_per_round", "count", "lower", famACS},
	{"acs.frames_per_append", "count", "lower", famACS},
	{"acs.round_latency_p50_ms", "ms", "lower", famACS},
	{"acs.serial_append_p50_ms", "ms", "lower", famACS},
	// grid, harness, mpnet, smmem, checker, theory.
	{"grid.cell_ms_p50.mp_cr", "ms", "lower", famSweep},
	{"grid.cell_ms_p50.mp_byz", "ms", "lower", famSweep},
	{"grid.cell_ms_p50.sm_cr", "ms", "lower", famSweep},
	{"grid.cell_ms_p50.sm_byz", "ms", "lower", famSweep},
	{"grid.cell_ms_max", "ms", "lower", famSweep},
	{"grid.unsolvable_cell_us_p50", "us", "lower", famSweep},
	{"runs_per_s", "1/s", "higher", famSweep},
	{"sim.ns_per_event", "ns", "lower", famSweep},
	{"sim.events_per_run", "count", "lower", famSweep},
	{"sim.msgs_per_run", "count", "lower", famSweep},
	{"mpnet.run_us.floodmin_n16", "us", "lower", famSweep},
	{"smmem.run_us.protocol_e_n16", "us", "lower", famSweep},
	{"checker.checkall_ns", "ns", "lower", famSweep},
	{"theory.classify_ns", "ns", "lower", famSweep},
	{"grid.render_jsonl_ns_per_rec", "ns", "lower", famSweep},
	{"grid.render_csv_ns_per_rec", "ns", "lower", famSweep},
	{"grid.wireconv_ns_per_rec", "ns", "lower", famSweep},
	// sweep pool.
	{"sweep.pool_utilization", "ratio", "higher", famSweep},
	{"sweep.pool_ns_per_job", "ns", "lower", famSweep},
	// obs: the cost unit of later instrumentation.
	{"obs.hist_observe_ns", "ns", "lower", famAll},
	// process, over the traced measured run.
	{"proc.cpu_s_per_kop", "s", "lower", famAll},
	{"proc.allocs_per_op", "count", "lower", famAll},
	{"proc.bytes_per_op", "B", "lower", famAll},
	{"proc.gc_cycles", "count", "lower", famAll},
	{"proc.gc_pause_ms_total", "ms", "lower", famAll},
	{"proc.heap_end_mb", "MB", "lower", famAll},
	{"proc.peak_rss_mb", "MB", "lower", famAll},
	{"proc.goroutines_peak", "count", "lower", famAll},
	// driver: tails too unsteady to carry a bound, and the driver's own costs.
	{"driver.op_p90_ms", "ms", "lower", famAll},
	{"driver.table_p99_ms", "ms", "lower", famDecide},
	{"driver.table_max_ms", "ms", "lower", famDecide},
	{"driver.append_p99_ms", "ms", "lower", famACS},
	{"driver.samples", "count", "higher", famAll},
	{"driver.gen_late_p99_ms", "ms", "lower", famDecide},
	{"driver.verify_s", "s", "lower", famAll},
	{"driver.trace_overhead_pct", "%", "lower", famAll},
	{"driver.budget_residual_pct", "%", "lower", famAll},
}

// layerValues collects per-layer measurements by name; set panics on a name
// perLayer does not declare, so a typo cannot add an undeclared metric.
type layerValues map[string]float64

func (lv layerValues) set(name string, v float64) {
	for i := range perLayer {
		if perLayer[i].Name == name {
			lv[name] = v
			return
		}
	}
	panic("bench: undeclared per-layer metric " + name)
}
