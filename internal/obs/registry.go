package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic counter. The zero value is ready; a nil
// *Counter ignores Add and reads zero, so disabled-telemetry paths cost
// one pointer test.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value instrument (queue depth, busy workers). Nil
// receivers are no-ops like Counter.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations in
// (2^(i-1), 2^i] nanoseconds, so the range spans 1ns to ~9 minutes
// (2^39 ns) with the last bucket catching everything longer.
const histBuckets = 40

// Histogram is a fixed-bucket latency histogram over power-of-2
// nanosecond boundaries. Observations and snapshots are lock-free; a
// snapshot taken during concurrent Observe calls is a consistent-enough
// view (each bucket is atomically read) for monitoring.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1 // floor(log2(ns))
	if ns > 1<<uint(b) {            // not an exact power of two: round up
		b++
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.buckets[bucketOf(d)].Add(1)
}

// HistSnapshot is a point-in-time histogram summary. Quantiles are the
// upper bound of the bucket containing the quantile rank, i.e. exact to
// within one power of two.
type HistSnapshot struct {
	Count  int64   `json:"count"`
	SumMs  float64 `json:"sum_ms"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var counts [histBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{Count: total}
	if total == 0 {
		return s
	}
	s.SumMs = float64(h.sumNs.Load()) / 1e6
	s.MeanMs = s.SumMs / float64(total)
	q := func(frac float64) float64 {
		rank := int64(frac * float64(total-1))
		cum := int64(0)
		for i := range counts {
			cum += counts[i]
			if cum > rank {
				return float64(int64(1)<<uint(i)) / 1e6 // bucket upper bound, ms
			}
		}
		return float64(int64(1)<<uint(histBuckets-1)) / 1e6
	}
	s.P50Ms, s.P90Ms, s.P99Ms = q(0.50), q(0.90), q(0.99)
	return s
}

// Registry is a concurrency-safe name-addressed collection of counters,
// gauges and histograms. Get-or-create accessors hand out stable
// pointers, so hot paths resolve a name once and then touch atomics
// only. A nil *Registry hands out nil instruments (all no-ops).
type Registry struct {
	mu       sync.RWMutex
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

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegistrySnapshot is a point-in-time view of every instrument, sorted
// maps ready for JSON.
type RegistrySnapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() RegistrySnapshot {
	var s RegistrySnapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}
