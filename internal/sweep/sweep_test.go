package sweep

import (
	"strings"
	"sync/atomic"
	"testing"

	"kset/internal/obs"
)

func TestSerialRunsAllInOrder(t *testing.T) {
	var got []int
	Serial(5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("Serial order wrong: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("Serial ran %d of 5 jobs", len(got))
	}
}

func TestMapRunsEveryJobExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		const jobs = 257
		counts := make([]atomic.Int32, jobs)
		p.Map(jobs, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapZeroAndOneJobs(t *testing.T) {
	p := NewPool(4)
	p.Map(0, func(int) { t.Fatal("job ran for jobs=0") })
	ran := false
	p.Map(1, func(i int) { ran = true })
	if !ran {
		t.Fatal("single job did not run")
	}
}

func TestWorkersBound(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		if got := NewPool(w).Workers(); got != w {
			t.Errorf("NewPool(%d).Workers() = %d", w, got)
		}
	}
	if got := NewPool(0).Workers(); got < 1 {
		t.Errorf("NewPool(0).Workers() = %d", got)
	}
}

// TestNestedMapNoDeadlock exercises the caller-participates design: jobs that
// themselves fan out through the same pool must always complete, even when
// the nesting width exceeds the worker bound.
func TestNestedMapNoDeadlock(t *testing.T) {
	p := NewPool(2)
	var inner atomic.Int32
	p.Map(8, func(i int) {
		p.Map(8, func(j int) { inner.Add(1) })
	})
	if got := inner.Load(); got != 64 {
		t.Fatalf("nested maps ran %d of 64 inner jobs", got)
	}
}

func TestMapConcurrentCallers(t *testing.T) {
	p := NewPool(4)
	var total atomic.Int32
	done := make(chan struct{})
	for c := 0; c < 4; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			p.Map(100, func(i int) { total.Add(1) })
		}()
	}
	for c := 0; c < 4; c++ {
		<-done
	}
	if got := total.Load(); got != 400 {
		t.Fatalf("concurrent callers ran %d of 400 jobs", got)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic payload lost: %v", r)
		}
	}()
	p.Map(16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

// TestInstrumentedMap checks the pool's throughput metrics: every job is
// counted exactly once no matter how work was shared, spawns stay within the
// worker bound, and an uninstrumented pool (nil handles) still works.
func TestInstrumentedMap(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(4).Instrument(reg)
	const jobs = 100
	var ran atomic.Int64
	p.Map(jobs, func(int) { ran.Add(1) })
	if ran.Load() != jobs {
		t.Fatalf("ran %d of %d jobs", ran.Load(), jobs)
	}
	if got := reg.Counter("kset_sweep_jobs_total").Value(); got != jobs {
		t.Errorf("jobs counter = %d, want %d", got, jobs)
	}
	if got := reg.Counter("kset_sweep_worker_spawns_total").Value(); got < 0 || got > 3 {
		t.Errorf("spawns counter = %d, want 0..3", got)
	}
	// Per-participant observations: total observed jobs balance the counter.
	snap := reg.Histogram("kset_sweep_worker_jobs", nil).Snapshot("kset_sweep_worker_jobs")
	if snap.Sum != float64(jobs) {
		t.Errorf("worker-jobs histogram sum = %v, want %d", snap.Sum, jobs)
	}
	// Serial path (pool of one) is also counted.
	p1 := NewPool(1).Instrument(reg)
	p1.Map(3, func(int) {})
	if got := reg.Counter("kset_sweep_jobs_total").Value(); got != jobs+3 {
		t.Errorf("jobs counter after serial map = %d, want %d", got, jobs+3)
	}
	// Uninstrumented pools must not panic.
	NewPool(2).Map(10, func(int) {})
}
