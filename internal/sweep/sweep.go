// Package sweep is the deterministic parallel fan-out engine behind the
// evaluation commands. It executes mutually independent simulation jobs —
// (protocol, cell, adversary, seed) runs that PR 1's determinism contract
// makes pure functions of their configuration — across a bounded pool of
// workers while keeping every observable result in canonical job order, so
// reports and golden traces are byte-identical regardless of worker count.
//
// Design notes:
//
//   - Callers plan jobs sequentially (drawing any seeds in canonical order),
//     fan the execution out with Pool.Map writing into job-indexed slots, and
//     render results sequentially. Only the execution is concurrent, so the
//     output bytes cannot depend on scheduling.
//   - Pool.Map is "caller participates": the submitting goroutine also
//     executes jobs, and extra workers are admitted through a global
//     semaphore. Nested Map calls (a parallel sweep whose cells themselves
//     parallelize their runs) therefore always make progress and cannot
//     deadlock, and total concurrency stays bounded by the pool size rather
//     than multiplying at each nesting level.
//   - This package deliberately lives OUTSIDE the ksetlint simulation-package
//     set (see internal/lint.DefaultScopes): simulation code stays
//     goroutine-free, and all sync machinery is concentrated here.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"kset/internal/obs"
)

// Serial runs jobs 0..jobs-1 in order on the calling goroutine.
func Serial(jobs int, run func(job int)) {
	for i := 0; i < jobs; i++ {
		run(i)
	}
}

// Pool is a bounded worker pool. The zero value is not usable; construct with
// NewPool. A Pool may be shared by any number of goroutines and reused across
// any number of Map calls; the worker bound is global across all of them.
type Pool struct {
	// sem admits extra workers beyond the calling goroutine: capacity is
	// workers-1, so a pool of 1 never spawns a goroutine at all.
	sem chan struct{}

	// Metric handles, nil (no-op) until Instrument. Observed values never
	// feed back into scheduling, so instrumentation cannot perturb the
	// canonical-order determinism contract.
	mJobs       *obs.Counter   // jobs executed across all Map calls
	mSpawns     *obs.Counter   // extra worker goroutines spawned
	mWorkerJobs *obs.Histogram // jobs one participant ran in one Map call
}

// workerJobsBounds buckets the per-participant job counts: powers of two up
// to 4096 cover everything the evaluation commands fan out today.
func workerJobsBounds() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// Instrument registers the pool's throughput metrics in reg and returns the
// pool. Call it before the pool is shared: the handles are written without
// synchronization. A nil registry leaves the pool uninstrumented.
func (p *Pool) Instrument(reg *obs.Registry) *Pool {
	p.mJobs = reg.Counter("kset_sweep_jobs_total")
	p.mSpawns = reg.Counter("kset_sweep_worker_spawns_total")
	p.mWorkerJobs = reg.Histogram("kset_sweep_worker_jobs", workerJobsBounds())
	return p
}

// NewPool returns a pool bounded at workers concurrent executors (including
// the calling goroutine). workers <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) + 1 }

// Map executes jobs 0..jobs-1, each exactly once, and returns when all are
// done. The calling goroutine participates in the work; up to Workers()-1
// additional goroutines are spawned if the semaphore admits them (it may not,
// when other Map calls are in flight — the bound is global). Results must be
// written to job-indexed slots; Map itself imposes no result ordering.
//
// A panic in any job is re-raised on the calling goroutine after all spawned
// workers have drained, so a crashing job cannot leak goroutines.
func (p *Pool) Map(jobs int, run func(job int)) {
	if jobs <= 0 {
		return
	}
	if jobs == 1 || cap(p.sem) == 0 {
		Serial(jobs, run)
		p.mJobs.Add(int64(jobs))
		p.mWorkerJobs.Observe(float64(jobs))
		return
	}

	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicValue]
	)
	work := func() {
		mine := 0
		defer func() {
			p.mJobs.Add(int64(mine))
			p.mWorkerJobs.Observe(float64(mine))
		}()
		for {
			i := int(next.Add(1) - 1)
			if i >= jobs || panicked.Load() != nil {
				return
			}
			mine++
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, &panicValue{r})
					}
				}()
				run(i)
			}()
		}
	}

	var wg sync.WaitGroup
	// Admit extra workers without blocking: if the pool is saturated by other
	// Map calls (or nesting), the caller just does the work itself.
	want := jobs - 1
	if want > cap(p.sem) {
		want = cap(p.sem)
	}
admit:
	for i := 0; i < want; i++ {
		select {
		case p.sem <- struct{}{}:
			p.mSpawns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				work()
			}()
		default:
			break admit // saturated: the caller does the rest itself
		}
	}
	work()
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(fmt.Sprintf("sweep: job panicked: %v", pv.value))
	}
}

// panicValue boxes a recovered panic for transport across goroutines.
type panicValue struct{ value any }
