package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"kset/internal/cluster"
	"kset/internal/grid"
	"kset/internal/obs"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// decideHist is the histogram every node records one sample into per local
// decision; bench uses its count as the completion signal.
const decideHist = "kset_decide_latency_seconds"

// The transport counters bench reports as deltas over the run.
const (
	framesSent      = "kset_frames_sent_total"
	msgsSent        = "kset_msgs_sent_total"
	batchesSent     = "kset_batches_sent_total"
	acksPiggybacked = "kset_acks_piggybacked_total"
)

// runBench floods the cluster with concurrent consensus instances and reports
// throughput, decide-latency quantiles, and transport efficiency.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ksetctl bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		peers     = fs.String("peers", "", "comma-separated node addresses in id order")
		loopN     = fs.Int("loopback", 0, "start an in-process n-node loopback cluster to bench against")
		instances = fs.Int("instances", 1000, "number of concurrent instances to drive")
		workers   = fs.Int("workers", 16, "parallel start submitters")
		first     = fs.Uint64("first", 1, "id of the first instance")
		k         = fs.Int("k", 1, "agreement bound")
		t         = fs.Int("t", 0, "failure bound")
		protocol  = fs.String("protocol", "floodmin", "protocol to run")
		seed      = fs.Uint64("seed", 1, "loopback cluster seed")
		shards    = fs.Int("shards", 0, "shard event loops per loopback node (0: GOMAXPROCS)")
		timeout   = fs.Duration("timeout", 120*time.Second, "deadline for every node to decide every instance")
		minRate   = fs.Float64("min-rate", 0, "fail if throughput falls below this many instances/s (0: no floor)")
		maxGoros  = fs.Int("max-goroutines", 0, "with -loopback: fail if the process goroutine count ever exceeds this during the run (0: no bound)")
		jsonlPath = fs.String("jsonl", "", "append a machine-readable bench record (grid JSONL schema) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*peers == "") == (*loopN == 0) {
		return fmt.Errorf("exactly one of -peers or -loopback is required")
	}
	if *instances < 1 || *workers < 1 {
		return fmt.Errorf("-instances %d -workers %d: need at least 1 of each", *instances, *workers)
	}
	if *maxGoros > 0 && *loopN == 0 {
		return fmt.Errorf("-max-goroutines bounds the bench process itself and needs the in-process cluster: use -loopback")
	}
	proto, err := cluster.ParseProtocol(*protocol)
	if err != nil {
		return err
	}

	addrs := splitAddrs(*peers)
	if *loopN > 0 {
		lb, err := cluster.StartLoopback(cluster.LoopbackConfig{
			N: *loopN, K: *k, T: *t, Seed: *seed, Shards: *shards,
		})
		if err != nil {
			return fmt.Errorf("start loopback cluster: %w", err)
		}
		defer lb.Close()
		addrs = lb.Addrs
		fmt.Fprintf(out, "loopback cluster: %d nodes\n", *loopN)
	}
	n := len(addrs)
	if n == 0 {
		return fmt.Errorf("no node addresses")
	}

	// One monitoring client per node, used for the baseline snapshot, the
	// completion poll, and the final report.
	mon, err := dialAll(addrs, 10*time.Second)
	if err != nil {
		return err
	}
	defer closeAll(mon)
	// The baseline, so the report is a delta even on a long-lived cluster.
	base, err := pullAll(mon)
	if err != nil {
		return err
	}

	// Submit phase: workers split the id range, each with its own control
	// connections (a Client is strict request-reply and must not be shared).
	// Start blocks on the node's ack, so submission is naturally paced by
	// control-plane round trips while the instances themselves all run
	// concurrently on the cluster.
	if *workers > *instances {
		*workers = *instances
	}
	started := time.Now()
	errs := make(chan error, *workers)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		lo := *first + uint64(w*(*instances)/(*workers))
		hi := *first + uint64((w+1)*(*instances)/(*workers))
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			errs <- submitRange(addrs, lo, hi, *k, *t, proto)
		}(lo, hi)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e != nil {
			return e
		}
	}
	submitElapsed := time.Since(started)

	// Completion: every node's decide histogram must grow by one sample per
	// instance (each node decides each instance locally exactly once). With
	// -max-goroutines the poll also samples the process goroutine count at
	// peak load: the loopback nodes run in this process, so with the sharded
	// engine the peak stays O(nodes * shards + connections) no matter how
	// many instances are in flight.
	deadline := time.Now().Add(*timeout)
	want := int64(*instances)
	peakGoros := runtime.NumGoroutine()
	var final []cluster.Metrics // the pull that saw every node done
	for {
		if g := runtime.NumGoroutine(); g > peakGoros {
			peakGoros = g
		}
		if final, err = pullAll(mon); err != nil {
			return err
		}
		done := true
		slowest := want
		for i := range final {
			d := decided(final[i]) - decided(base[i])
			if d < want {
				done = false
			}
			if d < slowest {
				slowest = d
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: slowest node at %d/%d decisions at deadline", slowest, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	elapsed := time.Since(started)

	// Report. The latency histograms are cumulative, so quantiles include any
	// decisions recorded before the bench; against a fresh cluster (the
	// loopback mode, or a just-started deployment) the baseline is zero.
	prior := int64(0)
	deltas := make(map[string]int64)
	for i, m := range final {
		prior += decided(base[i])
		for _, name := range []string{framesSent, msgsSent, batchesSent, acksPiggybacked} {
			deltas[name] += m.Value(name) - base[i].Value(name)
		}
	}
	merged := obs.MergeSnapshots(decideHists(final))
	totalDecisions := int64(*instances) * int64(n)

	fmt.Fprintf(out, "bench: %d instances x %d nodes, %s, k=%d t=%d, %d workers\n",
		*instances, n, *protocol, *k, *t, *workers)
	fmt.Fprintf(out, "submitted in %v, all decided in %v\n",
		submitElapsed.Round(time.Millisecond), elapsed.Round(time.Millisecond))
	rate := float64(*instances) / elapsed.Seconds()
	fmt.Fprintf(out, "throughput: %.1f instances/s (%.1f local decisions/s)\n",
		rate, float64(totalDecisions)/elapsed.Seconds())
	if *loopN > 0 {
		fmt.Fprintf(out, "goroutines: peak %d across the whole process (%d in-process nodes)\n",
			peakGoros, *loopN)
	}
	if *maxGoros > 0 && peakGoros > *maxGoros {
		return fmt.Errorf("bench: goroutine peak %d exceeds -max-goroutines %d (instance engine leaking goroutines?)",
			peakGoros, *maxGoros)
	}
	if *minRate > 0 && rate < *minRate {
		return fmt.Errorf("bench: throughput %.1f instances/s below -min-rate %.1f", rate, *minRate)
	}
	if merged.Count > 0 {
		fmt.Fprintf(out, "decide latency (%d samples", merged.Count)
		if prior > 0 {
			fmt.Fprintf(out, ", %d predate the bench", prior)
		}
		fmt.Fprintf(out, "): p50 %s  p95 %s  p99 %s  max %s\n",
			secDuration(merged.Quantile(0.50)), secDuration(merged.Quantile(0.95)),
			secDuration(merged.Quantile(0.99)), secDuration(merged.Max))
	}
	fmt.Fprintf(out, "transport: %d frames, %d msgs, %d batch frames, %d acks piggybacked\n",
		deltas[framesSent], deltas[msgsSent], deltas[batchesSent], deltas[acksPiggybacked])
	if frames := deltas[framesSent]; frames > 0 {
		fmt.Fprintf(out, "transport: %.2f frames/decision, %.2f msgs/frame\n",
			float64(frames)/float64(totalDecisions),
			float64(deltas[msgsSent])/float64(frames))
	}
	if *jsonlPath != "" {
		rec := grid.BenchRecord{
			Protocol:        *protocol,
			Nodes:           n,
			K:               *k,
			T:               *t,
			Instances:       *instances,
			Workers:         *workers,
			Decided:         int64(merged.Count),
			ElapsedMicros:   elapsed.Microseconds(),
			InstancesPerSec: float64(*instances) / elapsed.Seconds(),
			Frames:          deltas[framesSent],
			Messages:        deltas[msgsSent],
			Batches:         deltas[batchesSent],
			AckPiggybacked:  deltas[acksPiggybacked],
		}
		if merged.Count > 0 {
			rec.P50Micros = secDuration(merged.Quantile(0.50)).Microseconds()
			rec.P95Micros = secDuration(merged.Quantile(0.95)).Microseconds()
			rec.P99Micros = secDuration(merged.Quantile(0.99)).Microseconds()
			rec.MaxMicros = secDuration(merged.Max).Microseconds()
		}
		if rec.Frames > 0 {
			rec.FramesPerDecision = float64(rec.Frames) / float64(totalDecisions)
			rec.MsgsPerFrame = float64(rec.Messages) / float64(rec.Frames)
		}
		if err := appendBenchRecord(*jsonlPath, &rec); err != nil {
			return err
		}
		fmt.Fprintf(out, "bench record appended to %s\n", *jsonlPath)
	}
	return nil
}

// appendBenchRecord appends one bench record to the JSONL file, creating it
// if needed; appending lets one results file accumulate a whole bench matrix.
func appendBenchRecord(path string, rec *grid.BenchRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := grid.WriteBenchJSONL(f, rec); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// submitRange starts instances [lo, hi) on every node over this worker's own
// control connections.
func submitRange(addrs []string, lo, hi uint64, k, t int, proto theory.ProtocolID) error {
	clients, err := dialAll(addrs, 10*time.Second)
	if err != nil {
		return err
	}
	defer closeAll(clients)
	for id := lo; id < hi; id++ {
		for i, c := range clients {
			err := c.Start(wire.Start{
				Instance: id, K: k, T: t, Proto: uint8(proto),
				// Distinct inputs per node, derived from the id, so FloodMin
				// has real disagreement to resolve on every instance.
				Input: types.Value(int(id)*100 + i + 1),
			})
			if err != nil {
				return fmt.Errorf("start instance %d on node %d: %w", id, i, err)
			}
		}
	}
	return nil
}

// pullAll pulls every node's metric registry.
func pullAll(mon []*cluster.Client) ([]cluster.Metrics, error) {
	out := make([]cluster.Metrics, len(mon))
	for i, c := range mon {
		m, err := c.Metrics()
		if err != nil {
			return nil, fmt.Errorf("metrics from node %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// decided reads a node's cumulative local-decision count off its
// decide-latency histogram.
func decided(m cluster.Metrics) int64 {
	h, _ := m.Hist(decideHist)
	return int64(h.Count)
}
