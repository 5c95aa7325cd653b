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
//     semaphore. Concurrent Map calls on one pool (the cluster's sweep jobs,
//     say) therefore always make progress, and total concurrency stays
//     bounded by the pool size. The evaluators fan out one level only —
//     cells, figures, report sections — and no Map runs inside another.
//   - This package deliberately lives OUTSIDE the ksetlint simulation-package
//     set (see internal/lint.DefaultScopes): simulation code stays
//     goroutine-free, and all sync machinery is concentrated here.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
		return
	}

	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicValue]
	)
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= jobs || panicked.Load() != nil {
				return
			}
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

// FreeList keeps values for reuse by jobs that may run on any worker: Get
// hands out a kept value, or a new zero one when none is kept, and Put takes
// one back. It is how a job's working set (a harness.Arena) outlives the
// job without being shared by two at once, and it holds as many values as
// were ever out at once — one per worker for a pool's jobs. The zero value
// is ready to use and safe for concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get takes a value off the list, or returns a new zero one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return v
}

// Put returns v to the list. The caller must not use v afterwards.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
