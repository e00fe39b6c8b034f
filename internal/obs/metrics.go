package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------
// Registry and exposition
// ---------------------------------------------------------------------

// Desc describes one metric family: its name, HELP text, TYPE and
// label names (in exposition order).
type Desc struct {
	Name   string
	Help   string
	Type   string // "counter", "gauge", "histogram"
	Labels []string
}

// Collector is anything a Registry can render: it describes one family
// and emits its current series. Histogram-shaped collectors implement
// histCollector instead of emitting through Collect.
type Collector interface {
	Describe() Desc
	Collect(emit func(labelValues []string, value float64))
}

// histCollector is the histogram-shaped extension of Collector.
type histCollector interface {
	CollectHist(emit func(labelValues []string, bounds []float64, buckets []uint64, count uint64, sum float64))
}

// Registry holds an ordered set of collectors and renders them in
// Prometheus text exposition format. Registration order is exposition
// order, so output is deterministic.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	names      map[string]bool
}

func NewRegistry() *Registry { return &Registry{names: make(map[string]bool)} }

// MustRegister adds collectors, panicking on a duplicate family name —
// duplicate families are invalid exposition, so this is a programming
// error worth failing fast on.
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		d := c.Describe()
		if r.names[d.Name] {
			panic("obs: duplicate metric family " + d.Name)
		}
		r.names[d.Name] = true
		r.collectors = append(r.collectors, c)
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

func writeLabels(b *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	first := true
	for i, n := range names {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WritePrometheus renders every registered family with its # HELP and
// # TYPE header in Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	var b strings.Builder
	for _, c := range collectors {
		d := c.Describe()
		fmt.Fprintf(&b, "# HELP %s %s\n", d.Name, escapeHelp(d.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", d.Name, d.Type)
		if h, ok := c.(histCollector); ok {
			h.CollectHist(func(lv []string, bounds []float64, buckets []uint64, count uint64, sum float64) {
				cum := uint64(0)
				for i, bound := range bounds {
					cum += buckets[i]
					b.WriteString(d.Name)
					b.WriteString("_bucket")
					writeLabels(&b, d.Labels, lv, "le", formatValue(bound))
					fmt.Fprintf(&b, " %d\n", cum)
				}
				cum += buckets[len(bounds)]
				b.WriteString(d.Name)
				b.WriteString("_bucket")
				writeLabels(&b, d.Labels, lv, "le", "+Inf")
				fmt.Fprintf(&b, " %d\n", cum)
				b.WriteString(d.Name)
				b.WriteString("_sum")
				writeLabels(&b, d.Labels, lv, "", "")
				fmt.Fprintf(&b, " %s\n", formatValue(sum))
				b.WriteString(d.Name)
				b.WriteString("_count")
				writeLabels(&b, d.Labels, lv, "", "")
				fmt.Fprintf(&b, " %d\n", count)
			})
			continue
		}
		c.Collect(func(lv []string, v float64) {
			b.WriteString(d.Name)
			writeLabels(&b, d.Labels, lv, "", "")
			b.WriteByte(' ')
			b.WriteString(formatValue(v))
			b.WriteByte('\n')
		})
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

// Counter is a lock-free monotone integer counter.
type Counter struct {
	d Desc
	v atomic.Uint64
}

func NewCounter(name, help string) *Counter {
	return &Counter{d: Desc{Name: name, Help: help, Type: "counter"}}
}

func (c *Counter) Inc()           { c.v.Add(1) }
func (c *Counter) Add(n uint64)   { c.v.Add(n) }
func (c *Counter) Value() uint64  { return c.v.Load() }
func (c *Counter) Describe() Desc { return c.d }
func (c *Counter) Collect(emit func([]string, float64)) {
	emit(nil, float64(c.v.Load()))
}

// Func adapts an arbitrary read function into a Collector — the bridge
// for exporting state that already lives in application atomics
// (server counters, cache sizes, WAL stats).
type Func struct {
	D  Desc
	Fn func(emit func(labelValues []string, value float64))
}

func (f Func) Describe() Desc                       { return f.D }
func (f Func) Collect(emit func([]string, float64)) { f.Fn(emit) }

// GaugeFunc is a gauge family whose series fn emits at scrape time.
func GaugeFunc(name, help string, labels []string, fn func(emit func(labelValues []string, value float64))) Func {
	return Func{D: Desc{Name: name, Help: help, Type: "gauge", Labels: labels}, Fn: fn}
}

// CounterFunc is a counter family whose series fn emits at scrape time.
func CounterFunc(name, help string, labels []string, fn func(emit func(labelValues []string, value float64))) Func {
	return Func{D: Desc{Name: name, Help: help, Type: "counter", Labels: labels}, Fn: fn}
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

// Histogram is a fixed-bucket lock-free histogram: Observe does a
// short linear scan over the bounds plus three atomic updates, no
// locks, no allocation.
type Histogram struct {
	d      Desc
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// LatencyBuckets spans 50µs .. 5s — HTTP request latencies.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// PhaseBuckets spans 1µs .. 2.5s — engine phase and WAL fsync
// durations, which start far below HTTP latencies.
var PhaseBuckets = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 500e-6,
	2.5e-3, 10e-3, 50e-3, 250e-3, 1, 2.5,
}

// NewHistogram builds a histogram with the given upper bounds, which
// must be sorted ascending (the +Inf bucket is implicit).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{
		d:      Desc{Name: name, Help: help, Type: "histogram"},
		bounds: append([]float64(nil), bounds...),
	}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	// The total count is the sum of the buckets, computed at collect
	// time — observing costs one counter bump plus the sum CAS, not
	// three read-modify-writes.
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func (h *Histogram) Describe() Desc                  { return h.d }
func (h *Histogram) Collect(func([]string, float64)) {} // rendered via CollectHist
func (h *Histogram) CollectHist(emit func([]string, []float64, []uint64, uint64, float64)) {
	buckets := make([]uint64, len(h.counts))
	var count uint64
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		count += buckets[i]
	}
	emit(nil, h.bounds, buckets, count, math.Float64frombits(h.sum.Load()))
}

// HistogramVec is a family of histograms distinguished by label
// values. Series creation takes a write lock once; later lookups are
// read-locked map hits. Hot paths should cache the *Histogram from
// With.
type HistogramVec struct {
	d      Desc
	bounds []float64
	mu     sync.RWMutex
	elems  map[string]*vecHist
	order  []string
}

type vecHist struct {
	labels []string
	h      *Histogram
}

func NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{
		d:      Desc{Name: name, Help: help, Type: "histogram", Labels: labels},
		bounds: append([]float64(nil), bounds...),
		elems:  make(map[string]*vecHist),
	}
}

func vecKey(values []string) string { return strings.Join(values, "\x00") }

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.d.Labels) {
		panic("obs: label cardinality mismatch for " + v.d.Name)
	}
	k := vecKey(values)
	v.mu.RLock()
	e := v.elems[k]
	v.mu.RUnlock()
	if e != nil {
		return e.h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if e = v.elems[k]; e != nil {
		return e.h
	}
	e = &vecHist{
		labels: append([]string(nil), values...),
		h:      NewHistogram(v.d.Name, v.d.Help, v.bounds),
	}
	v.elems[k] = e
	v.order = append(v.order, k)
	return e.h
}

func (v *HistogramVec) Describe() Desc                  { return v.d }
func (v *HistogramVec) Collect(func([]string, float64)) {}
func (v *HistogramVec) CollectHist(emit func([]string, []float64, []uint64, uint64, float64)) {
	v.mu.RLock()
	elems := make([]*vecHist, 0, len(v.order))
	for _, k := range v.order {
		elems = append(elems, v.elems[k])
	}
	v.mu.RUnlock()
	for _, e := range elems {
		e.h.CollectHist(func(_ []string, bounds []float64, buckets []uint64, count uint64, sum float64) {
			emit(e.labels, bounds, buckets, count, sum)
		})
	}
}
