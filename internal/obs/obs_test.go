package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(1)
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Add(1)
	if got := g.Value(); got != 0 {
		t.Errorf("nil gauge value = %d", got)
	}
	h := r.Histogram("z", nil)
	h.Observe(1.5)
	if s := h.Snapshot("z"); s.Count != 0 {
		t.Errorf("nil histogram count = %d", s.Count)
	}
	if snaps := r.Snapshots(); snaps != nil {
		t.Errorf("nil registry snapshots = %v", snaps)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestRegistrySharesMetrics(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("hits"), r.Counter("hits")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(1)
	b.Add(2)
	if got := r.Counter("hits").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	h1 := r.Histogram("lat", []float64{1, 2})
	h2 := r.Histogram("lat", []float64{9, 99}) // first registration wins
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
	h2.Observe(1.5)
	if s := h1.Snapshot("lat"); s.Counts[1] != 1 {
		t.Errorf("bucket counts = %v, want observation in bucket 1", s.Counts)
	}
}

// TestHistogramBucketBoundaries pins the bucket semantics: upper bounds are
// inclusive (Prometheus `le`), values above the last bound land in the
// overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0000001, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	s := h.Snapshot("h")
	want := []uint64{2, 2, 2, 2} // (..1], (1..10], (10..100], (100..)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if s.Min != 0.5 {
		t.Errorf("min = %v, want 0.5", s.Min)
	}
	if s.Max != 1e9 {
		t.Errorf("max = %v, want 1e9", s.Max)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// 100 observations 1..100 against decade bounds: quantiles should land
	// within the right bucket, and the extremes must be exact.
	h := NewHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot("h")
	if got := s.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want 1 (clamped to min)", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("p100 = %v, want 100 (clamped to max)", got)
	}
	for _, tc := range []struct {
		q      float64
		lo, hi float64
	}{
		{0.5, 40, 60},
		{0.95, 90, 100},
		{0.99, 90, 100},
	} {
		got := s.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("p%v = %v, want in [%v, %v]", tc.q*100, got, tc.lo, tc.hi)
		}
	}
	if got, want := s.Mean(), 50.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// A single observation is every quantile — in a finite bucket, and in a
	// snapshot that (pulled from a peer) has no finite bucket at all.
	one := NewHistogram([]float64{10, 20})
	one.Observe(12.5)
	for _, s := range []HistSnapshot{one.Snapshot("h"), {Counts: []uint64{1}, Count: 1, Sum: 12.5, Min: 12.5, Max: 12.5}} {
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			if got := s.Quantile(q); got != 12.5 {
				t.Errorf("one sample, %d bounds: q%v = %v, want 12.5", len(s.Bounds), q, got)
			}
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewHistogram(nil).Snapshot("h")
	if s.Count != 0 || s.Sum != 0 {
		t.Errorf("empty snapshot: count=%d sum=%v", s.Count, s.Sum)
	}
	if !math.IsInf(s.Min, 1) || !math.IsInf(s.Max, -1) {
		t.Errorf("empty snapshot extrema: min=%v max=%v", s.Min, s.Max)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if got := s.Mean(); got != 0 {
		t.Errorf("empty mean = %v, want 0", got)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many goroutines;
// run under -race this is the data-race check, and the totals must balance.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{0.25, 0.5, 0.75})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%4) * 0.25)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot("h")
	if s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
	sum := uint64(0)
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Errorf("bucket sum %d != count %d", sum, s.Count)
	}
	wantSum := float64(workers) * perWorker / 4 * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Min != 0 || s.Max != 0.75 {
		t.Errorf("extrema = [%v, %v], want [0, 0.75]", s.Min, s.Max)
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(vals ...float64) HistSnapshot {
		h := NewHistogram([]float64{1, 2, 3})
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot("lat")
	}
	merged := MergeSnapshots([]HistSnapshot{mk(0.5, 1.5), mk(2.5, 9), mk()})
	if merged.Count != 4 {
		t.Errorf("merged count = %d, want 4", merged.Count)
	}
	if merged.Min != 0.5 || merged.Max != 9 {
		t.Errorf("merged extrema = [%v, %v], want [0.5, 9]", merged.Min, merged.Max)
	}
	if got, want := merged.Sum, 0.5+1.5+2.5+9; math.Abs(got-want) > 1e-9 {
		t.Errorf("merged sum = %v, want %v", got, want)
	}
	wantCounts := []uint64{1, 1, 1, 1}
	for i, w := range wantCounts {
		if merged.Counts[i] != w {
			t.Errorf("merged counts = %v, want %v", merged.Counts, wantCounts)
			break
		}
	}
	// Mismatched bounds are skipped, not mangled.
	odd := NewHistogram([]float64{7}).Snapshot("lat")
	merged2 := MergeSnapshots([]HistSnapshot{mk(1), odd})
	if merged2.Count != 1 {
		t.Errorf("merge with mismatched bounds: count = %d, want 1", merged2.Count)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("kset_frames_sent_total").Add(12)
	r.Counter(`kset_link_dials_total{peer="1"}`).Add(3)
	r.Counter(`kset_link_dials_total{peer="0"}`).Add(2)
	r.Gauge("kset_backoff_micros").Set(250)
	h := r.Histogram("kset_decide_latency_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# TYPE kset_frames_sent_total counter\n",
		"kset_frames_sent_total 12\n",
		`kset_link_dials_total{peer="0"} 2` + "\n",
		`kset_link_dials_total{peer="1"} 3` + "\n",
		"# TYPE kset_backoff_micros gauge\n",
		"kset_backoff_micros 250\n",
		"# TYPE kset_decide_latency_seconds histogram\n",
		`kset_decide_latency_seconds_bucket{le="0.001"} 1` + "\n",
		`kset_decide_latency_seconds_bucket{le="0.01"} 2` + "\n",
		`kset_decide_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"kset_decide_latency_seconds_sum 0.5055\n",
		"kset_decide_latency_seconds_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	// One TYPE line per family, even with several labeled series.
	if n := strings.Count(got, "# TYPE kset_link_dials_total"); n != 1 {
		t.Errorf("family typed %d times, want 1:\n%s", n, got)
	}
	// Deterministic: a second write is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != got {
		t.Error("two expositions of the same state differ")
	}
}

// TestSeriesHelpers pins the label-merging rules used by the exposition.
func TestSeriesHelpers(t *testing.T) {
	if got := seriesSuffix(`h{peer="1"}`, "_sum"); got != `h_sum{peer="1"}` {
		t.Errorf("seriesSuffix = %q", got)
	}
	if got := seriesWithLabel(`h{peer="1"}`, "_bucket", "le", "0.5"); got != `h_bucket{le="0.5",peer="1"}` {
		t.Errorf("seriesWithLabel = %q", got)
	}
	if got := seriesWithLabel("h", "_bucket", "le", "+Inf"); got != `h_bucket{le="+Inf"}` {
		t.Errorf("seriesWithLabel = %q", got)
	}
	if got := familyOf(`h{peer="1"}`); got != "h" {
		t.Errorf("familyOf = %q", got)
	}
}
