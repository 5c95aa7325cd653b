package cluster

import (
	"time"

	"kset/internal/grid"
	"kset/internal/wire"
)

// serveSweepJob executes one grid-sweep shard on behalf of a coordinator: it
// rebuilds the spec from the job's axes, runs the requested cell range on the
// node's sweep pool, and returns the records in enumeration order. Every
// failure mode — malformed axes, an out-of-range shard, a record that cannot
// be packed — replies with an empty (or short) record list rather than an
// error frame; the coordinator treats any record count other than job.Count
// as a rejection and reassigns the shard elsewhere. Cells derive their seeds
// from their coordinates alone, so a shard re-executed on another node yields
// byte-identical records.
func (n *Node) serveSweepJob(job wire.SweepJob) wire.SweepResult {
	reply := wire.SweepResult{Job: job.Job, First: job.First}
	spec, err := grid.SpecFromWire(job)
	if err != nil {
		n.log.Warn("sweep job rejected", "job", job.Job, "err", err.Error())
		return reply
	}
	total := spec.NumCells()
	if job.Count <= 0 || job.First >= total || uint64(job.Count) > total-job.First {
		n.log.Warn("sweep shard outside grid", "job", job.Job,
			"first", job.First, "count", job.Count, "cells", total)
		return reply
	}
	n.stats.sweepJobs.Add(1)
	recs := spec.RunRange(job.First, job.Count, func(jobs int, run func(int)) {
		n.sweepPool.Map(jobs, func(i int) {
			start := time.Now()
			run(i)
			n.stats.sweepCellLatency.Observe(time.Since(start).Seconds())
		})
	})
	ws, err := grid.RecordsToWire(recs)
	if err != nil {
		n.log.Warn("sweep records not packed", "job", job.Job, "err", err.Error())
		return reply
	}
	reply.Records = ws
	return reply
}
