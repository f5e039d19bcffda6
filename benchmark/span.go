package main

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Names are "<layer>.<op>"; a campaign's root span is
// "bench.campaign" and every layer call it makes is its child. Attrs
// carry counts the call returned (place moves, probe rounds, ...).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // -1 for a root
	Name     string             `json:"name"`
	Layer    string             `json:"layer"`
	Campaign int                `json:"campaign"`
	Phase    string             `json:"phase"` // "setup" or "window"
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory; they are written out once the run ends.
// Spans nest strictly: end always closes the innermost open span.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int
	campaign int
	phase    string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	layer, _, _ := strings.Cut(name, ".")
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Campaign: t.campaign, Phase: t.phase,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// do times f as one span and returns its ID (for attrs) and f's error.
func (t *tracer) do(name string, f func() error) (int, error) {
	id := t.start(name)
	err := f()
	t.end(id)
	return id, err
}

func (t *tracer) attr(id int, key string, v float64) {
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] = v
}

// childCover returns, per span, how many nanoseconds of its interval its
// children cover (overlapping children counted once).
func childCover(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	cover := make([]int64, len(spans))
	for i, p := range spans {
		ks := kids[i]
		slices.SortFunc(ks, func(a, b span) int { return cmp.Compare(a.StartNs, b.StartNs) })
		var covered, reach int64 = 0, p.StartNs
		for _, k := range ks {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, p.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		cover[i] = covered
	}
	return cover
}

// selfTimes is each span's duration minus the part its children cover.
func selfTimes(spans []span) []int64 {
	cover := childCover(spans)
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - cover[i]
	}
	return self
}

// writeSpans writes one JSON object per span, tagged with the run.
func writeSpans(w io.Writer, workload string, seed int64, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			span
		}{workload, seed, s}); err != nil {
			return err
		}
	}
	return nil
}
