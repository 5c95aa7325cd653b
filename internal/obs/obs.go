// Package obs is the observability layer of the cluster runtime: a
// dependency-free metrics registry (atomic counters, gauges, and fixed-bucket
// histograms with quantile snapshots) plus the line format of the cluster's
// structured event log (a log/slog logger, NewLogger).
//
// The package exists so that the empirical quantities the paper reasons about
// — per-round message complexity, retransmission behavior, decision latency —
// can be measured on a running cluster instead of asserted. Design rules:
//
//   - Hot-path operations (Counter.Add, Gauge.Set, Histogram.Observe) are
//     lock-free: a single atomic op, safe from any goroutine, never blocking
//     a transport or protocol goroutine.
//   - Every accessor is nil-safe: a nil *Registry hands out nil metrics whose
//     methods are no-ops, so instrumented packages need no "is observability
//     enabled" branches.
//   - Exposition is deterministic: series are emitted in sorted name order,
//     so two snapshots of the same state are byte-identical.
//
// The package deliberately has no I/O of its own beyond the writers handed to
// it; the HTTP endpoint lives in ksetd. The registry's map is mutex-guarded,
// and ksetlint's lockdiscipline holds every lock to be released on every path.
//
//ksetlint:package-allow determinism live goroutines share the registry under a mutex and atomics, and histograms time wall-clock latency
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use; a
// nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. Metrics are created on first
// use and shared thereafter: two calls with the same name return the same
// metric. A nil *Registry hands out nil metrics, so instrumentation can be
// wired unconditionally and enabled by supplying a registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. The name may
// carry Prometheus-style labels: `kset_link_dials_total{peer="1"}`.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds if needed (see NewHistogram). The bounds of an existing
// histogram are not changed: the first registration wins.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshots returns a point-in-time snapshot of every histogram, sorted by
// name. Nil registries return nil.
func (r *Registry) Snapshots() []HistSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	hists := make([]*Histogram, len(names))
	for i, name := range names {
		hists[i] = r.hists[name]
	}
	r.mu.Unlock()
	out := make([]HistSnapshot, len(hists))
	for i, h := range hists {
		out[i] = h.Snapshot(names[i])
	}
	return out
}

// Sample is one counter or gauge reading.
type Sample struct {
	Name  string
	Value int64
}

// Values reads every counter and every gauge, each list sorted by name — the
// one enumeration behind both the Prometheus exposition and the cluster's
// pull-metrics reply. Nil registries return nothing.
func (r *Registry) Values() (counters, gauges []Sample) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return readSorted(r.counters), readSorted(r.gauges)
}

func readSorted[M interface{ Value() int64 }](m map[string]M) []Sample {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Sample, len(names))
	for i, name := range names {
		out[i] = Sample{Name: name, Value: m[name].Value()}
	}
	return out
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), series sorted by name within each kind, one # TYPE
// line per metric family. Nil registries write nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters, gauges := r.Values()
	snaps := r.Snapshots()

	var b strings.Builder
	typed := make(map[string]bool)
	for _, c := range counters {
		writeType(&b, typed, c.Name, "counter")
		fmt.Fprintf(&b, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range gauges {
		writeType(&b, typed, g.Name, "gauge")
		fmt.Fprintf(&b, "%s %d\n", g.Name, g.Value)
	}
	for _, s := range snaps {
		writeType(&b, typed, s.Name, "histogram")
		cum := uint64(0)
		for i, bound := range s.Bounds {
			cum += s.Counts[i]
			fmt.Fprintf(&b, "%s %d\n", seriesWithLabel(s.Name, "_bucket", "le", formatBound(bound)), cum)
		}
		cum += s.Counts[len(s.Bounds)]
		fmt.Fprintf(&b, "%s %d\n", seriesWithLabel(s.Name, "_bucket", "le", "+Inf"), cum)
		fmt.Fprintf(&b, "%s %s\n", seriesSuffix(s.Name, "_sum"), formatFloat(s.Sum))
		fmt.Fprintf(&b, "%s %d\n", seriesSuffix(s.Name, "_count"), s.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// familyOf strips a label set from a series name: the # TYPE line names the
// metric family, not the series.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func writeType(b *strings.Builder, typed map[string]bool, name, kind string) {
	fam := familyOf(name)
	if typed[fam] {
		return
	}
	typed[fam] = true
	fmt.Fprintf(b, "# TYPE %s %s\n", fam, kind)
}

// seriesSuffix appends a suffix to the family part of a series name,
// preserving any label set: ("h{peer="1"}", "_sum") -> `h_sum{peer="1"}`.
func seriesSuffix(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// seriesWithLabel appends a suffix and one extra label to a series name,
// merging with any existing label set.
func seriesWithLabel(name, suffix, key, val string) string {
	label := key + `="` + val + `"`
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + "{" + label + "," + name[i+1:]
	}
	return name + suffix + "{" + label + "}"
}

// formatBound renders a bucket bound the way Prometheus clients do: shortest
// float representation.
func formatBound(v float64) string { return formatFloat(v) }

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
