package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefaultLatencyBounds are the bucket upper bounds (in seconds) used for the
// cluster's latency histograms: roughly exponential from 100µs to 30s, the
// range a consensus instance on a real network can plausibly span.
func DefaultLatencyBounds() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
	}
}

// Histogram counts observations into fixed buckets and tracks count, sum,
// min, and max. All operations are lock-free atomics, so Observe is safe from
// any goroutine and never blocks. A nil Histogram is a no-op.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets, sorted
	// ascending; observations above the last bound land in the overflow
	// bucket counts[len(bounds)].
	bounds []float64
	counts []atomic.Uint64

	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits; valid only when count > 0
	maxBits atomic.Uint64
}

// NewHistogram builds a histogram with the given bucket upper bounds. The
// bounds are copied and sorted; duplicates are kept (harmless). Nil or empty
// bounds select DefaultLatencyBounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram. Counts[i] is the
// number of observations in bucket i (NOT cumulative); Counts has
// len(Bounds)+1 entries, the last being the overflow bucket.
type HistSnapshot struct {
	Name   string
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
	Min    float64 // +Inf when Count == 0
	Max    float64 // -Inf when Count == 0
}

// Snapshot copies the histogram's current state. Concurrent Observe calls
// may straddle the copy (the per-bucket counts and the total are read
// independently); the snapshot is internally consistent enough for
// reporting, which is all it is for. A nil histogram yields a zero snapshot.
func (h *Histogram) Snapshot(name string) HistSnapshot {
	s := HistSnapshot{Name: name, Min: math.Inf(1), Max: math.Inf(-1)}
	if h == nil {
		return s
	}
	s.Bounds = append([]float64(nil), h.bounds...)
	s.Counts = make([]uint64, len(h.counts))
	total := uint64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Derive Count from the buckets rather than the separate total so the
	// snapshot's invariant sum(Counts) == Count holds even when Observe
	// calls race the copy.
	s.Count = total
	s.Sum = math.Float64frombits(h.sumBits.Load())
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	return s
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket containing it, clamped to the observed [Min, Max]. An
// empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := s.bucketEdges(i)
			frac := (rank - float64(cum)) / float64(c)
			v := lo + (hi-lo)*frac
			return s.clamp(v)
		}
		cum += c
	}
	return s.clamp(s.Max)
}

// bucketEdges returns the interpolation edges of bucket i, substituting the
// observed extrema for the open ends (below the first bound, above the
// last). A snapshot built from a peer's reply may carry the overflow bucket
// alone; the extrema are then all there is.
func (s HistSnapshot) bucketEdges(i int) (lo, hi float64) {
	lo, hi = s.Min, s.Max
	if i > 0 {
		lo = s.Bounds[i-1]
	} else if len(s.Bounds) > 0 {
		lo = math.Min(s.Min, s.Bounds[0])
	}
	if i < len(s.Bounds) {
		hi = s.Bounds[i]
	} else if len(s.Bounds) > 0 {
		hi = math.Max(s.Max, s.Bounds[len(s.Bounds)-1])
	}
	return lo, hi
}

func (s HistSnapshot) clamp(v float64) float64 {
	if s.Count == 0 {
		return v
	}
	if v < s.Min {
		return s.Min
	}
	if v > s.Max {
		return s.Max
	}
	return v
}

// MergeSnapshots combines same-shaped snapshots (identical bucket bounds)
// into one, as when aggregating one histogram across every node of a
// cluster. Snapshots with mismatched bounds are skipped. The merged snapshot
// keeps the name of the first input; merging nothing yields a zero snapshot.
func MergeSnapshots(snaps []HistSnapshot) HistSnapshot {
	out := HistSnapshot{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, s := range snaps {
		if out.Bounds == nil {
			out.Name = s.Name
			out.Bounds = append([]float64(nil), s.Bounds...)
			out.Counts = make([]uint64, len(s.Counts))
		}
		if !sameBounds(out.Bounds, s.Bounds) || len(s.Counts) != len(out.Counts) {
			continue
		}
		for i, c := range s.Counts {
			out.Counts[i] += c
		}
		out.Count += s.Count
		out.Sum += s.Sum
		if s.Count > 0 {
			out.Min = math.Min(out.Min, s.Min)
			out.Max = math.Max(out.Max, s.Max)
		}
	}
	return out
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
