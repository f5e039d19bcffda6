package obs

import (
	"sort"
	"sync"
	"time"
)

// Pipeline stage names. Every span opened by the debug loop uses one of
// these, so per-stage histograms ("stage.<name>") and StageTrace rows
// line up across campaigns, the /metrics endpoint and the benchmark's
// per-layer rows.
const (
	StageQueue           = "queue"
	StageRecover         = "recover"
	StageResume          = "resume"
	StageSynth           = "synth"
	StageMap             = "map"
	StagePlace           = "place"
	StageRoute           = "route"
	StageCompile         = "compile"
	StageGoldenTrace     = "goldentrace"
	StageDetect          = "detect"
	StageLocalizeDict    = "localize-dict"
	StageLocalizeCausal  = "localize-causal"
	StageProbeSwitch     = "probe-switch"
	StageLocalizeProbe   = "localize-probe"
	StageRepairEnumerate = "repair-enumerate"
	StageRepairValidate  = "repair-validate"
	StageEcoVerify       = "eco-verify"
	StageFaultScan       = "faultscan"
)

// StageOrder is the canonical pipeline order used when flattening a
// trace; stages a campaign never entered are simply absent.
var StageOrder = []string{
	StageQueue, StageRecover, StageResume,
	StageSynth, StageMap, StagePlace, StageRoute,
	StageCompile, StageGoldenTrace, StageDetect, StageLocalizeDict,
	StageLocalizeCausal, StageProbeSwitch,
	StageLocalizeProbe, StageRepairEnumerate, StageRepairValidate,
	StageEcoVerify, StageFaultScan,
}

var stageRank = func() map[string]int {
	m := make(map[string]int, len(StageOrder))
	for i, s := range StageOrder {
		m[s] = i
	}
	return m
}()

// SpanRecord is one closed span as stored by its Trace: stage, absolute
// start, duration, nesting depth at open time and any child counters.
type SpanRecord struct {
	Stage    string
	Start    time.Time
	Dur      time.Duration
	Depth    int
	Counters map[string]int64
}

// Trace collects the spans of one campaign. All methods are safe from
// the single campaign goroutine plus any number of snapshot readers; a
// nil *Trace is a valid no-op collector.
type Trace struct {
	campaign string
	design   string
	kind     string
	reg      *Registry

	mu       sync.Mutex
	start    time.Time
	open     int
	spans    []SpanRecord
	counters map[string]int64
}

// NewTrace starts a trace for one campaign. reg may be nil (spans then
// feed only the trace, not service-lifetime histograms).
func NewTrace(campaign, design, kind string, reg *Registry) *Trace {
	return &Trace{
		campaign: campaign, design: design, kind: kind, reg: reg,
		start:    time.Now(),
		counters: make(map[string]int64),
	}
}

// Span is one in-flight stage measurement. Obtain with Trace.Start, close
// with End; Add attaches child counters (routed nets, probe rounds,
// cache hits…). A Span is used from one goroutine.
type Span struct {
	t        *Trace
	stage    string
	start    time.Time
	depth    int
	counters map[string]int64
	done     bool
}

// Start opens a span for a stage. Nil traces return nil spans; both are
// no-ops, so call sites never branch on telemetry being enabled.
func (t *Trace) Start(stage string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	depth := t.open
	t.open++
	t.mu.Unlock()
	return &Span{t: t, stage: stage, start: time.Now(), depth: depth}
}

// Add accumulates a named child counter on the span; it is folded into
// the trace's counter map at End.
func (s *Span) Add(name string, n int64) {
	if s == nil {
		return
	}
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[name] += n
}

// End closes the span, recording it on the trace and observing its
// duration in the registry's "stage.<name>" histogram. Double End is a
// no-op.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	d := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	t.open--
	t.spans = append(t.spans, SpanRecord{
		Stage: s.stage, Start: s.start, Dur: d, Depth: s.depth, Counters: s.counters,
	})
	for k, v := range s.counters {
		t.counters[k] += v
	}
	t.mu.Unlock()
	t.reg.Histogram("stage." + s.stage).Observe(d)
}

// Add accumulates a trace-level counter outside any span (e.g. artifact
// cache hits observed by the service).
func (t *Trace) Add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += n
	t.mu.Unlock()
}

// Spans returns a copy of the closed span records (tests, debugging).
// Test fixture of the obs, repair and service tests.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// StageSpan is one pipeline stage's flattened timing within a campaign.
type StageSpan struct {
	Stage string `json:"stage"`
	// StartUs is the first entry into the stage, as an offset from the
	// trace start in microseconds.
	StartUs int64 `json:"start_us"`
	// DurUs sums the stage's span durations (inclusive of nested child
	// stages); ExclUs subtracts directly nested child spans, so exclusive
	// times across stages partition the instrumented wall time.
	DurUs  int64 `json:"dur_us"`
	ExclUs int64 `json:"excl_us"`
	// Count is the number of spans the stage accumulated.
	Count int `json:"count"`
}

// StageTrace is the flat, CSV-friendly per-campaign timing record: one
// row per pipeline stage actually entered, in canonical StageOrder, plus
// the campaign's child counters. It is stored in service.Result, served
// at GET /campaigns/{id}/trace and exported as NDJSON.
type StageTrace struct {
	Campaign string           `json:"campaign"`
	Design   string           `json:"design,omitempty"`
	Kind     string           `json:"kind,omitempty"`
	Start    time.Time        `json:"start"`
	WallUs   int64            `json:"wall_us"`
	Stages   []StageSpan      `json:"stages"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Stage returns the row for a stage name, or nil when the campaign never
// entered it. Test fixture of the obs and service tests.
func (st *StageTrace) Stage(name string) *StageSpan {
	if st == nil {
		return nil
	}
	for i := range st.Stages {
		if st.Stages[i].Stage == name {
			return &st.Stages[i]
		}
	}
	return nil
}

// Finish flattens the trace into its StageTrace. Open spans are ignored;
// the campaign goroutine calls Finish exactly once, after the pipeline
// returns.
func (t *Trace) Finish() *StageTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &StageTrace{
		Campaign: t.campaign, Design: t.design, Kind: t.kind,
		Start:  t.start,
		WallUs: time.Since(t.start).Microseconds(),
	}
	if len(t.counters) > 0 {
		st.Counters = make(map[string]int64, len(t.counters))
		for k, v := range t.counters {
			st.Counters[k] = v
		}
	}
	// Exclusive time: subtract each span's duration from its innermost
	// enclosing span. The campaign runs its pipeline on one goroutine, so
	// spans are properly nested and "enclosing" is well-defined: the
	// latest-started open interval containing this span at a smaller
	// depth.
	excl := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		excl[i] = t.spans[i].Dur
	}
	for i := range t.spans {
		child := &t.spans[i]
		best := -1
		for j := range t.spans {
			if i == j {
				continue
			}
			p := &t.spans[j]
			if p.Depth != child.Depth-1 {
				continue
			}
			if !child.Start.Before(p.Start) && !child.Start.Add(child.Dur).After(p.Start.Add(p.Dur)) {
				if best < 0 || t.spans[j].Start.After(t.spans[best].Start) {
					best = j
				}
			}
		}
		if best >= 0 {
			excl[best] -= child.Dur
		}
	}
	agg := make(map[string]*StageSpan)
	for i := range t.spans {
		rec := &t.spans[i]
		row := agg[rec.Stage]
		if row == nil {
			row = &StageSpan{Stage: rec.Stage, StartUs: rec.Start.Sub(t.start).Microseconds()}
			agg[rec.Stage] = row
		} else if off := rec.Start.Sub(t.start).Microseconds(); off < row.StartUs {
			row.StartUs = off
		}
		row.DurUs += rec.Dur.Microseconds()
		row.ExclUs += excl[i].Microseconds()
		row.Count++
	}
	for _, row := range agg {
		st.Stages = append(st.Stages, *row)
	}
	sort.Slice(st.Stages, func(i, j int) bool {
		ri, iok := stageRank[st.Stages[i].Stage]
		rj, jok := stageRank[st.Stages[j].Stage]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return st.Stages[i].Stage < st.Stages[j].Stage
		}
	})
	return st
}
