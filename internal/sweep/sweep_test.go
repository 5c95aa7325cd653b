package sweep

import (
	"strings"
	"sync/atomic"
	"testing"
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
