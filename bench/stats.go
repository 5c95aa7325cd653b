package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// epoch anchors the driver's monotonic clock; every timestamp the driver
// keeps is nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// secondsSince is the seconds elapsed since t0 on the driver's clock.
func secondsSince(t0 int64) float64 { return float64(now()-t0) / 1e9 }

// quantile returns the nearest-rank q-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, and 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pass is one measured pass of a workload: set-up, the timed operations and
// their verification.
type pass struct {
	attempted int
	failed    int       // incomplete at the deadline, or failing verification
	lat       []float64 // ms, one per completed operation
	setups    []float64 // seconds, one per set-up
	// The timed operations ran over [runFrom, runTo] on the driver's clock.
	runFrom, runTo int64
	// batch: every operation was due when the run began (a sweep).
	batch   bool
	verify  float64 // seconds spent verifying outputs, after the clock stopped
	failure string  // first verification or stall message, for the report
	// recordHash identifies a sweep's rendered records; it must repeat
	// exactly for one seed. 0 on the live workloads.
	recordHash uint64

	// Filled by a traced pass only.
	layer  layerValues
	budget []budgetRow
	spans  []span
}

func (p *pass) completed() int { return len(p.lat) }

// wall is the seconds the timed operations took.
func (p *pass) wall() float64 { return float64(p.runTo-p.runFrom) / 1e9 }

func (p *pass) opsPerS() float64 { return ratio(float64(p.completed()), p.wall()) }

// latency is the typical due-to-complete time of an operation: the median,
// except on a batch, where every operation is due at once and any one
// quantile of the completion times follows where the order of the batch put
// its heavy operations, not how fast the engine is; there it is the mean.
func (p *pass) latency() float64 {
	if !p.batch {
		return quantile(p.lat, 0.5)
	}
	sum := 0.0
	for _, l := range p.lat {
		sum += l
	}
	return ratio(sum, float64(len(p.lat)))
}

// endToEnd derives the end-to-end metrics.
func (p *pass) endToEnd() map[string]float64 {
	return map[string]float64{
		"ops_per_s":     p.opsPerS(),
		"op_latency_ms": p.latency(),
		"setup_s":       trimmedMean(p.setups),
	}
}

// trimmedMean is the mean of xs without its highest and lowest tenth. The
// set-up times of the ACS workload are bimodal — the link timers tick every
// 25 ms and the first round takes two ticks or three — so their median flips
// between the modes from run to run, while a mean moves with the mix; the
// trim keeps one stalled set-up out of it.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return ratio(sum, float64(len(s)))
}

// fail records failed operations and keeps the first reason.
func (p *pass) fail(n int, reason string) {
	if n <= 0 {
		return
	}
	p.failed += n
	if p.failure == "" {
		p.failure = reason
	}
}

// procMeter measures the process over the timed operations of a traced pass:
// CPU time, allocation, GC, and gauges sampled every 10 ms. Untraced passes
// do not use it, so nothing but the per-operation timestamps runs beside the
// program there.
type procMeter struct {
	ru0  syscall.Rusage
	ms0  runtime.MemStats
	stop chan struct{}
	wg   sync.WaitGroup

	goroutinesPeak int
	gaugePeak      int64
}

// startProcMeter begins sampling; gauge (may be nil) is read on every tick
// and its maximum kept.
func startProcMeter(gauge func() int64) *procMeter {
	m := &procMeter{stop: make(chan struct{})}
	runtime.ReadMemStats(&m.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0) // cannot fail for RUSAGE_SELF
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if g := runtime.NumGoroutine(); g > m.goroutinesPeak {
					m.goroutinesPeak = g
				}
				if gauge != nil {
					if v := gauge(); v > m.gaugePeak {
						m.gaugePeak = v
					}
				}
			}
		}
	}()
	return m
}

// finish stops sampling and writes the proc.* metrics for ops operations.
func (m *procMeter) finish(lv layerValues, ops int) {
	close(m.stop)
	m.wg.Wait()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	cpu := tvSeconds(ru.Utime) + tvSeconds(ru.Stime) - tvSeconds(m.ru0.Utime) - tvSeconds(m.ru0.Stime)
	n := float64(ops)
	lv.set("proc.cpu_s_per_kop", ratio(cpu*1000, n))
	lv.set("proc.allocs_per_op", ratio(float64(ms1.Mallocs-m.ms0.Mallocs), n))
	lv.set("proc.bytes_per_op", ratio(float64(ms1.TotalAlloc-m.ms0.TotalAlloc), n))
	lv.set("proc.gc_cycles", float64(ms1.NumGC-m.ms0.NumGC))
	lv.set("proc.gc_pause_ms_total", float64(ms1.PauseTotalNs-m.ms0.PauseTotalNs)/1e6)
	lv.set("proc.heap_end_mb", float64(ms1.HeapAlloc)/(1<<20))
	lv.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	lv.set("proc.goroutines_peak", float64(m.goroutinesPeak))
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
