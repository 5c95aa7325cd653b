package main

import (
	"runtime"

	"kset/internal/checker"
	"kset/internal/grid"
	"kset/internal/mpnet"
	"kset/internal/obs"
	"kset/internal/protocols/mp"
	"kset/internal/protocols/sm"
	"kset/internal/smmem"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// Probes are isolated timed loops over one layer's public functions, run in
// a traced run after the workload. They give the unit costs the layer table
// reads beside the spans: a probe that halves while the workload does not
// move says the layer is not on the blocking path.

// The sinks keep probe results alive so the compiler cannot drop the calls;
// they are typed so that storing a result allocates nothing.
var (
	sinkResult theory.Result
	sinkRecord grid.Record
	sinkRun    *types.RunRecord
	sinkErr    error
)

// perCall runs fn iters times in each of five batches and returns the median
// nanoseconds per call.
func perCall(iters int, fn func()) float64 {
	batches := make([]float64, 5)
	for b := range batches {
		t0 := now()
		for i := 0; i < iters; i++ {
			fn()
		}
		batches[b] = float64(now()-t0) / float64(iters)
	}
	return median(batches)
}

// probeLive runs the probes of the live path: wire codec, and FloodMin on
// the simulator at the live workloads' parameters.
func probeLive(lv layerValues) {
	const msgs, acks = 64, 16
	batch := make([]wire.BatchMsg, msgs)
	for i := range batch {
		batch[i] = wire.BatchMsg{Kind: wire.TypeProto, Seq: uint64(i + 1), Instance: uint64(1000 + i), From: 1,
			Payload: types.Payload{Kind: types.KindInput, Value: types.Value(i), Origin: 1}}
	}
	ackSeqs := make([]uint64, acks)
	for i := range ackSeqs {
		ackSeqs[i] = uint64(i + 1)
	}
	buf := make([]byte, 0, 1<<14)
	var frame []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	encode := perCall(2000, func() { frame, _ = wire.AppendBatchFrame(buf[:0], ackSeqs, batch) })
	runtime.ReadMemStats(&ms1)
	lv.set("wire.encode_ns_per_msg", encode/msgs)
	lv.set("wire.encode_allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/(5*2000))
	var decoded wire.Batch
	body := frame[4:] // past the length prefix
	lv.set("wire.decode_ns_per_msg", perCall(2000, func() { _ = wire.DecodeBatchInto(body, &decoded) })/msgs)

	run, msgsPerRun := probeFloodMin(16, 1, 0)
	lv.set("proto.floodmin_run_us", run/1e3)
	lv.set("proto.floodmin_msgs_per_run", msgsPerRun)
}

// probeFloodMin times mpnet.Run of FloodMin and returns ns per run and
// messages per run.
func probeFloodMin(n, k, t int) (ns, msgs float64) {
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = types.Value(i + 1)
	}
	seed, total, runs := uint64(0), 0, 0
	ns = perCall(200, func() {
		seed++
		rec, err := mpnet.Run(mpnet.Config{N: n, T: t, K: k, Inputs: inputs, Seed: seed,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() }})
		if err == nil {
			total += rec.Messages
			runs++
		}
	})
	return ns, ratio(float64(total), float64(runs))
}

// probeObs times one histogram observation, the cost unit of instrumentation.
func probeObs(lv layerValues) {
	h := obs.NewHistogram(nil)
	v := 0.0
	lv.set("obs.hist_observe_ns", perCall(200000, func() { v += 1e-5; h.Observe(v) }))
}

// probeClassify times theory.Classify over the sweep workloads' axes.
func probeClassify() float64 {
	i := 0
	return perCall(20000, func() {
		i++
		sinkResult = theory.Classify(types.AllModels()[i%4], sweepValidities[i%5], 8+i%17, 2+i%7, 1+i%7)
	})
}

// probeSweep runs the probes of the simulator side, classify excepted (the
// sweep budget needs it and sets it).
func probeSweep(lv layerValues) {
	run, _ := probeFloodMin(16, 8, 7)
	lv.set("mpnet.run_us.floodmin_n16", run/1e3)

	inputs := make([]types.Value, 16)
	for i := range inputs {
		inputs[i] = types.Value(i + 1)
	}
	seed := uint64(0)
	lv.set("smmem.run_us.protocol_e_n16", perCall(40, func() {
		seed++
		sinkRun, _ = smmem.Run(smmem.Config{N: 16, T: 15, K: 2, Inputs: inputs, Seed: seed,
			NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() }})
	})/1e3)

	rec, err := mpnet.Run(mpnet.Config{N: 16, T: 7, K: 8, Inputs: inputs, Seed: 1,
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() }})
	if err == nil {
		lv.set("checker.checkall_ns", perCall(20000, func() { sinkErr = checker.CheckAll(rec, types.RV1) }))
	}

	spec := sweepMP(1, 1)[0]
	cell := spec.RunCell(0)
	lv.set("grid.wireconv_ns_per_rec", perCall(20000, func() {
		w, err := grid.RecordToWire(&cell)
		if err == nil {
			sinkRecord, _ = grid.RecordFromWire(&w)
		}
	}))

	pool := sweep.NewPool(runtime.NumCPU())
	const jobs = 4096
	lv.set("sweep.pool_ns_per_job", perCall(20, func() { pool.Map(jobs, func(int) {}) })/jobs)
}
