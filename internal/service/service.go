package service

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/store"
)

// Campaign kinds.
const (
	// KindDebug is the full detect → localize → correct loop (default).
	KindDebug = "debug"
	// KindFaultScan fault-simulates the design's exhaustive single-fault
	// universe in SimLanes-sized batches and reports detection coverage and
	// latency; it needs no layout, no injection and no correction.
	KindFaultScan = "faultscan"
	// Fault models of a KindFaultScan campaign (Spec.FaultModel).
	FaultModelSingle       = "single"
	FaultModelPair         = "pair"
	FaultModelSEU          = "seu"
	FaultModelInterconnect = "interconnect"

	// KindRepair is the KindDebug loop capped at one iteration, with the
	// fault dictionary always attached: one detect → localize → repair
	// pass whose lane-parallel candidate search uses the golden model
	// only as a behavioural oracle.
	KindRepair = "repair"
)

// Spec describes one campaign: which design, which injected error, and
// the knobs of the loop. Zero values take the documented defaults so an
// HTTP client can post `{"design":"c880","fault_seed":3}`.
type Spec struct {
	// Design is a benchmark catalog name (bench.Catalog).
	Design string `json:"design"`
	// Kind selects the campaign pipeline: KindDebug (default),
	// KindRepair or KindFaultScan.
	Kind string `json:"kind,omitempty"`
	// FaultSeed selects the injected design error (debug campaigns).
	FaultSeed int64 `json:"fault_seed"`
	// Seed drives layout and stimulus randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Overhead is the tiling resource slack (default 0.20).
	Overhead float64 `json:"overhead,omitempty"`
	// TileFrac is the tile size as a device fraction (default 0.10).
	TileFrac float64 `json:"tile_frac,omitempty"`
	// PlaceEffort scales annealing work (default 0.5).
	PlaceEffort float64 `json:"place_effort,omitempty"`
	// Words and Cycles shape each detection replay (defaults 8 and 4).
	Words  int `json:"words,omitempty"`
	Cycles int `json:"cycles,omitempty"`
	// MaxIters bounds detect→localize→correct iterations (default 4).
	MaxIters int `json:"max_iters,omitempty"`
	// MaxRounds bounds observation-insertion rounds (default 4).
	MaxRounds int `json:"max_rounds,omitempty"`
	// ProbesPerRound is the observation fan-out per round (default 4).
	ProbesPerRound int `json:"probes_per_round,omitempty"`
	// Patterns is the broadcast-pattern count of a faultscan campaign
	// (default 64).
	Patterns int `json:"patterns,omitempty"`
	// FaultModel selects the faultscan campaign's fault model:
	// FaultModelSingle (default) scans the exhaustive single-fault
	// universe; FaultModelPair scans sampled fault pairs and diagnoses
	// their composed syndromes through the cached composition dictionary;
	// FaultModelSEU arms each sampled fault only for a transient cycle
	// window and reports detection latency and masking; FaultModelInterconnect
	// scans bridging and route stuck-at faults. Only valid with
	// Kind == KindFaultScan.
	FaultModel string `json:"fault_model,omitempty"`
	// SimLanes is the simulator lane count for the campaign's
	// lane-parallel engines — the fault-scan host and the repair
	// candidate program. Must be a multiple of 64 between 64 and
	// 64·sim.MaxWidth; each replay retires SimLanes faults or repair
	// candidates at once. Default 64 (the classic single-word engine).
	SimLanes int `json:"sim_lanes,omitempty"`
	// UseDict attaches a fault dictionary (built once per design and
	// cached) to a debug campaign, so localization tries a probe-free
	// dictionary lookup before inserting observation logic.
	UseDict bool `json:"use_dict,omitempty"`
	// Overlay plans a pre-reserved debug overlay into the campaign's
	// layout (routing headroom + a time-multiplexed observation network
	// covering every cell output) and enables the causal-chain
	// localizer: probe rounds become zero-CAD configuration switches
	// instead of incremental place-and-route. Overlay layouts live under
	// their own cache key, so overlay and non-overlay campaigns never
	// share a pristine layout. Not valid with Kind == KindFaultScan
	// (faultscan builds no layout).
	Overlay bool `json:"overlay,omitempty"`
	// Priority orders the queue: higher runs first; equal priorities are
	// FIFO.
	Priority int `json:"priority,omitempty"`
}

func (sp Spec) withDefaults() Spec {
	if sp.Kind == "" {
		sp.Kind = KindDebug
	}
	if sp.Kind == KindRepair {
		// The repair pass always consults the dictionary first.
		sp.UseDict = true
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Kind == KindFaultScan && sp.FaultModel == "" {
		sp.FaultModel = FaultModelSingle
	}
	if sp.Patterns == 0 {
		sp.Patterns = 64
	}
	if sp.SimLanes == 0 {
		sp.SimLanes = 64
	}
	if sp.Overhead == 0 {
		sp.Overhead = 0.20
	}
	if sp.TileFrac == 0 {
		sp.TileFrac = 0.10
	}
	if sp.PlaceEffort == 0 {
		sp.PlaceEffort = 0.5
	}
	if sp.Words == 0 {
		sp.Words = 8
	}
	if sp.Cycles == 0 {
		// Debug detection holds each block 4 cycles; faultscan matches the
		// benchrepro -seu / EXPERIMENTS.md reference of 2 cycles per pattern.
		if sp.Kind == KindFaultScan {
			sp.Cycles = 2
		} else {
			sp.Cycles = 4
		}
	}
	if sp.MaxIters == 0 {
		sp.MaxIters = 4
	}
	if sp.MaxRounds == 0 {
		sp.MaxRounds = 4
	}
	if sp.ProbesPerRound == 0 {
		sp.ProbesPerRound = 4
	}
	return sp
}

// Spec ceilings, each at least 16× what any in-repo caller asks for: no
// real campaign meets one, and no single request can allocate or loop
// without bound.
const (
	maxWordCycles    = 1024 // words × cycles of a detection replay
	maxPatternCycles = 8192 // patterns × cycles of a faultscan stimulus
	maxLoopBound     = 64   // max_iters, max_rounds, probes_per_round
)

// Validate rejects malformed specs before they enter the queue.
func (sp Spec) Validate() error {
	if _, err := bench.ByName(sp.Design); err != nil {
		return err
	}
	if sp.Kind != "" && sp.Kind != KindDebug && sp.Kind != KindFaultScan && sp.Kind != KindRepair {
		return fmt.Errorf("service: unknown campaign kind %q (have %q, %q, %q)",
			sp.Kind, KindDebug, KindFaultScan, KindRepair)
	}
	if sp.Patterns < 0 {
		return fmt.Errorf("service: patterns must be positive (got %d)", sp.Patterns)
	}
	switch sp.FaultModel {
	case "", FaultModelSingle, FaultModelPair, FaultModelSEU, FaultModelInterconnect:
	default:
		return fmt.Errorf("service: unknown fault model %q (have %q, %q, %q, %q)",
			sp.FaultModel, FaultModelSingle, FaultModelPair, FaultModelSEU, FaultModelInterconnect)
	}
	if sp.FaultModel != "" && sp.FaultModel != FaultModelSingle && sp.Kind != KindFaultScan {
		return fmt.Errorf("service: fault model %q needs kind %q (got %q)", sp.FaultModel, KindFaultScan, sp.Kind)
	}
	if sp.Overlay && sp.Kind == KindFaultScan {
		return fmt.Errorf("service: overlay needs a layout; kind %q builds none", KindFaultScan)
	}
	if sp.Words < 0 || sp.Cycles < 0 {
		return fmt.Errorf("service: words and cycles must be positive (got %d, %d)", sp.Words, sp.Cycles)
	}
	// Each factor is bounded before the product so it cannot overflow.
	if sp.Words > maxWordCycles || sp.Cycles > maxWordCycles || sp.Words*sp.Cycles > maxWordCycles {
		return fmt.Errorf("service: words × cycles must not exceed %d (got %d × %d)", maxWordCycles, sp.Words, sp.Cycles)
	}
	if sp.Patterns > maxPatternCycles || sp.Patterns*sp.Cycles > maxPatternCycles {
		return fmt.Errorf("service: patterns × cycles must not exceed %d (got %d × %d)", maxPatternCycles, sp.Patterns, sp.Cycles)
	}
	if sp.MaxIters < 0 || sp.MaxRounds < 0 || sp.ProbesPerRound < 0 {
		return fmt.Errorf("service: loop bounds must be positive")
	}
	if sp.MaxIters > maxLoopBound || sp.MaxRounds > maxLoopBound || sp.ProbesPerRound > maxLoopBound {
		return fmt.Errorf("service: max_iters, max_rounds and probes_per_round must not exceed %d", maxLoopBound)
	}
	if sp.Overhead < 0 || sp.Overhead > 1 || sp.TileFrac < 0 || sp.TileFrac > 1 {
		return fmt.Errorf("service: overhead and tile_frac must lie in (0,1]")
	}
	if sp.SimLanes != 0 && (sp.SimLanes%64 != 0 || sp.SimLanes < 0 || sp.SimLanes > 64*sim.MaxWidth) {
		return fmt.Errorf("service: sim_lanes must be a multiple of 64 in [64, %d] (got %d)",
			64*sim.MaxWidth, sp.SimLanes)
	}
	return nil
}

// layoutKey content-addresses the pristine tiled layout of an
// implementation netlist under this spec's physical-design knobs. Floats
// are encoded exactly — truncation would alias distinct parameters onto
// one key and serve a layout built with the wrong knobs.
func (sp Spec) layoutKey(implFP string) string {
	key := fmt.Sprintf("layout/%s/o%s-t%s-s%d-e%s",
		implFP,
		strconv.FormatFloat(sp.Overhead, 'g', -1, 64),
		strconv.FormatFloat(sp.TileFrac, 'g', -1, 64),
		sp.Seed,
		strconv.FormatFloat(sp.PlaceEffort, 'g', -1, 64))
	if sp.Overlay {
		// Overlay layouts reserve routing capacity and carry trunk
		// wiring; the suffix is appended only when enabled so every
		// historical non-overlay key is unchanged.
		key += fmt.Sprintf("-ov%d", overlay.DefaultChannels)
	}
	return key
}

// State is a campaign's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one progress notification of a campaign.
type Event struct {
	Seq   int    `json:"seq"`
	Stage string `json:"stage"`
	Round int    `json:"round,omitempty"`
	Msg   string `json:"msg"`
}

// Result is the outcome of a finished campaign. Every field except WallMs
// is deterministic for a given Spec; Digest hashes those fields so tests
// and clients can assert seed-stability.
type Result struct {
	Design   string `json:"design"`
	Injected string `json:"injected"`
	// Detected reports whether the injected error was excited at all;
	// Clean whether the loop converged to a passing design.
	Detected   bool `json:"detected"`
	Clean      bool `json:"clean"`
	Iterations int  `json:"iterations"`
	// Rounds and ProbesInserted total the localization work.
	Rounds         int      `json:"rounds"`
	ProbesInserted int      `json:"probes_inserted"`
	Fixed          []string `json:"fixed,omitempty"`
	// TileWork is the campaign's tile-local CAD effort; FullWork the
	// effort of the full place-and-route that built the implementation's
	// pristine layout (cached with the layout).
	TileWork float64 `json:"tile_work"`
	FullWork float64 `json:"full_work"`
	// SpeedupPerIter is FullWork divided by tile work per physical update
	// (probe rounds plus corrections). It stays 0 when TileWork is 0: every
	// update was configuration-only (a LUT-frame rewrite with no
	// placement or routing), or there was none.
	SpeedupPerIter float64 `json:"speedup_per_iter"`
	// DictResolved counts diagnoses the fault dictionary settled without
	// probe rounds (debug campaigns with UseDict).
	DictResolved int `json:"dict_resolved,omitempty"`
	// Repaired counts corrections produced by the repair-candidate search
	// (as opposed to golden-copy restorations); RepairKind names the last
	// winning candidate shape and the three search counters total the
	// candidates enumerated, the detection-stimulus survivors and the
	// SimLanes-candidate lane batches replayed. ECOVerified reports the
	// tile-local sign-off replay of the last repair; RepairFallback that
	// at least one correction had to fall back to the golden copy.
	Repaired         int    `json:"repaired,omitempty"`
	RepairKind       string `json:"repair_kind,omitempty"`
	Candidates       int    `json:"candidates,omitempty"`
	Survivors        int    `json:"survivors,omitempty"`
	CandidateBatches int    `json:"candidate_batches,omitempty"`
	ECOVerified      bool   `json:"eco_verified,omitempty"`
	RepairFallback   bool   `json:"repair_fallback,omitempty"`
	// Faultscan campaigns (Kind == "faultscan") report the universe scan
	// instead of the loop fields above.
	FaultsTotal       int     `json:"faults_total,omitempty"`
	FaultsDetected    int     `json:"faults_detected,omitempty"`
	FaultBatches      int     `json:"fault_batches,omitempty"`
	FaultCoverage     float64 `json:"fault_coverage,omitempty"`
	MeanLatencyCycles float64 `json:"mean_latency_cycles,omitempty"`
	FaultsPerSec      float64 `json:"faults_per_sec,omitempty"`
	// Multi-fault faultscan campaigns (Spec.FaultModel beyond "single")
	// add their model's metrics. Pair campaigns: how many sampled pairs
	// were scanned, detected, and diagnosed probe-free by the syndrome
	// composition dictionary (exact-signature confirmation in simulation);
	// PairDiagRate is the probe-free resolution rate over detected pairs —
	// confirmed pair diagnoses plus masked-pair verdicts (a pair whose
	// signature equals a single's, resolved to the dominant fault's
	// equivalence class with the masked flag). SEU campaigns: the
	// detection-latency p50/p99 in cycles from the arming edge, and the
	// fraction of windowed faults the window masked (permanent counterpart
	// detected, transient undetected). Interconnect campaigns: the route
	// stuck-at and bridge counts of the scanned universe.
	FaultModel     string  `json:"fault_model,omitempty"`
	PairsTotal     int     `json:"pairs_total,omitempty"`
	PairsDetected  int     `json:"pairs_detected,omitempty"`
	PairsDiagnosed int     `json:"pairs_diagnosed,omitempty"`
	PairDiagRate   float64 `json:"pair_diag_rate,omitempty"`
	SEULatencyP50  float64 `json:"seu_latency_p50,omitempty"`
	SEULatencyP99  float64 `json:"seu_latency_p99,omitempty"`
	MaskedFraction float64 `json:"masked_fraction,omitempty"`
	RouteFaults    int     `json:"route_faults,omitempty"`
	BridgeFaults   int     `json:"bridge_faults,omitempty"`
	// Overlay campaigns (Spec.Overlay) report the pre-reserved debug
	// overlay's use: OverlaySwitches counts zero-CAD tap-mux probe
	// switches, OverlayFallbacks the probe rounds that fell back to the
	// incremental-CAD path (net outside overlay reach).
	Overlay          bool `json:"overlay,omitempty"`
	OverlaySwitches  int  `json:"overlay_switches,omitempty"`
	OverlayFallbacks int  `json:"overlay_fallbacks,omitempty"`
	// CacheHits / CacheMisses count this campaign's artifact lookups
	// (golden netlist+simulator artifact, layout, dictionary).
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	WallMs      float64 `json:"wall_ms"`
	Digest      string  `json:"digest"`
	// Trace is the campaign's per-stage telemetry (wall-clock spans), nil
	// when the service runs with telemetry disabled. Timing is host noise,
	// so Trace is — like WallMs — excluded from Digest.
	Trace *obs.StageTrace `json:"stage_trace,omitempty"`
}

// digest hashes the deterministic fields (wall-clock throughput and cache
// outcomes excluded).
func (r *Result) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%v|%v|%d|%d|%d|%v|%.0f|%.0f|%d|%d|%d|%d|%.3f|%d|%s|%d|%d|%d|%v|%v",
		r.Design, r.Injected, r.Detected, r.Clean, r.Iterations,
		r.Rounds, r.ProbesInserted, r.Fixed, r.TileWork, r.FullWork,
		r.DictResolved, r.FaultsTotal, r.FaultsDetected, r.FaultBatches,
		r.MeanLatencyCycles,
		r.Repaired, r.RepairKind, r.Candidates, r.Survivors, r.CandidateBatches,
		r.ECOVerified, r.RepairFallback)
	if r.FaultModel != "" && r.FaultModel != FaultModelSingle {
		// Extended multi-fault fields join the digest only when a model
		// sets them, so every historical single-model digest is unchanged.
		fmt.Fprintf(h, "|%s|%d|%d|%d|%.4f|%.2f|%.2f|%.4f|%d|%d",
			r.FaultModel, r.PairsTotal, r.PairsDetected, r.PairsDiagnosed, r.PairDiagRate,
			r.SEULatencyP50, r.SEULatencyP99, r.MaskedFraction, r.RouteFaults, r.BridgeFaults)
	}
	if r.Overlay {
		// Overlay fields join the digest only for overlay campaigns, so
		// every historical non-overlay digest is unchanged.
		fmt.Fprintf(h, "|ov|%d|%d", r.OverlaySwitches, r.OverlayFallbacks)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// Status is the externally visible snapshot of a campaign.
type Status struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Spec     Spec      `json:"spec"`
	Queued   time.Time `json:"queued"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Events   int       `json:"events"`
	Error    string    `json:"error,omitempty"`
	Result   *Result   `json:"result,omitempty"`
}

// campaign is the internal record.
type campaign struct {
	id   string
	spec Spec
	seq  int64

	// trace collects the campaign's per-stage telemetry spans; qspan is
	// the open queue-wait span, ended when a worker picks the campaign
	// up. Both are nil when the service runs with telemetry disabled.
	// They are written only by Submit and the owning worker, never
	// concurrently, so they live outside c.mu.
	trace *obs.Trace
	qspan *obs.Span

	mu       sync.Mutex
	state    State
	events   []Event
	subs     map[chan Event]struct{}
	err      error
	result   *Result
	cancel   context.CancelFunc
	done     chan struct{}
	queued   time.Time
	started  time.Time
	finished time.Time
}

// appendEvent records and fans out one event. Subscriber channels are
// buffered; a subscriber that stops draining loses events rather than
// blocking the campaign.
func (c *campaign) appendEvent(stage string, round int, format string, args ...any) {
	c.mu.Lock()
	c.appendEventLocked(stage, round, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// appendEventLocked is appendEvent with c.mu already held.
func (c *campaign) appendEventLocked(stage string, round int, msg string) {
	ev := Event{Seq: len(c.events) + 1, Stage: stage, Round: round, Msg: msg}
	c.events = append(c.events, ev)
	for ch := range c.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finishLocked moves the campaign to a terminal state and releases
// waiters and subscribers. Caller holds c.mu.
func (c *campaign) finishLocked(state State, res *Result, err error) {
	c.state = state
	c.result = res
	c.err = err
	c.finished = time.Now()
	for ch := range c.subs {
		close(ch)
		delete(c.subs, ch)
	}
	close(c.done)
}

func (c *campaign) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID: c.id, State: c.state, Spec: c.spec,
		Queued: c.queued, Started: c.started, Finished: c.finished,
		Events: len(c.events), Result: c.result,
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	return st
}

// queueItem orders campaigns by (priority desc, submission seq asc).
type queueItem struct {
	c *campaign
}

type campaignQueue []queueItem

func (q campaignQueue) Len() int { return len(q) }
func (q campaignQueue) Less(i, j int) bool {
	if q[i].c.spec.Priority != q[j].c.spec.Priority {
		return q[i].c.spec.Priority > q[j].c.spec.Priority
	}
	return q[i].c.seq < q[j].c.seq
}
func (q campaignQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *campaignQueue) Push(x any)   { *q = append(*q, x.(queueItem)) }
func (q *campaignQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = queueItem{}
	*q = old[:n-1]
	return it
}

// Config tunes a Service.
type Config struct {
	// Workers bounds concurrently running campaigns (default GOMAXPROCS).
	// Negative means no workers at all: campaigns queue but never run —
	// useful for tests and tooling that inspect queue state.
	Workers int
	// CacheEntries and CacheBytes bound the artifact cache (defaults 512
	// entries, 256 MiB estimated).
	CacheEntries int
	CacheBytes   int64
	// RetainCampaigns bounds retained terminal campaign records (event
	// logs + results); the oldest finished campaigns are pruned beyond it
	// so a long-running daemon's memory stays bounded like its cache.
	// Default 4096; negative means unbounded.
	RetainCampaigns int
	// TraceLog, when set, receives every finished campaign's StageTrace
	// as one NDJSON line (append-only; the daemon wires -trace-log here).
	TraceLog io.Writer
	// NoTelemetry disables the metrics registry and per-campaign stage
	// traces entirely: Result.Trace stays nil, /metrics reports service
	// counters only, and the pipelines pay one nil test per stage. The
	// benchmark's untraced throughput runs use it.
	NoTelemetry bool
	// Store, when set, makes campaign state durable: lifecycle
	// transitions are journaled, rebuildable artifacts spill into the
	// blob area, and Open replays the journal on startup (persist.go).
	// The service takes ownership and closes the store on Close.
	Store store.Store
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.RetainCampaigns == 0 {
		c.RetainCampaigns = 4096
	}
	return c
}

// Stats is a service-level snapshot, served under "fpgadbgd" by the
// /metrics endpoint.
type Stats struct {
	Workers   int        `json:"workers"`
	Submitted int64      `json:"submitted"`
	Queued    int        `json:"queued"`
	Running   int        `json:"running"`
	Done      int64      `json:"done"`
	Failed    int64      `json:"failed"`
	Canceled  int64      `json:"canceled"`
	Cache     CacheStats `json:"cache"`
	// QueueDepth is the genuinely-waiting queue length (same value the
	// queue_depth gauge tracks; equals Queued).
	QueueDepth int `json:"queue_depth"`
	// RunningAge is the age in seconds of the oldest in-flight campaign,
	// 0 when idle — a stuck-worker tell for dashboards.
	RunningAge float64 `json:"running_age_sec"`
	// ByKind counts submitted campaigns per kind.
	ByKind map[string]int64 `json:"by_kind,omitempty"`
	// Durable-store fields, present only when the service runs with a
	// Config.Store (the default in-memory daemon omits them, keeping the
	// historical /metrics shape byte-compatible).
	Store *store.Stats `json:"store,omitempty"`
	// Recovered counts campaigns requeued by journal replay at Open.
	Recovered int64 `json:"recovered,omitempty"`
	// SpillHits / SpillMisses count artifact rebuilds served from (or
	// falling past) the store's spilled blobs.
	SpillHits   int64 `json:"spill_hits,omitempty"`
	SpillMisses int64 `json:"spill_misses,omitempty"`
	// JournalErrors counts journal or blob writes that failed; nonzero
	// means durability is degraded and the disk wants looking at.
	JournalErrors int64 `json:"journal_errors,omitempty"`
	// CampaignPanics counts campaigns that failed on a recovered panic
	// (also among Failed).
	CampaignPanics int64 `json:"campaign_panics"`
}

// Service is the concurrent campaign server.
type Service struct {
	cfg   Config
	cache *Cache
	// reg is this service's metrics registry (per-stage histograms,
	// queue/worker gauges, cache counters); nil with NoTelemetry. It is
	// instance-owned — two services in one process never share counters.
	reg *obs.Registry
	// traceLog is the optional NDJSON sink for finished stage traces.
	traceLog *obs.TraceLog

	mu       sync.Mutex
	cond     *sync.Cond
	queue    campaignQueue
	byID     map[string]*campaign
	order    []string // submission order, for List
	nextSeq  int64
	running  int
	done     int64
	failed   int64
	cancels  int64
	byKind   map[string]int64     // submitted campaigns per kind
	runStart map[string]time.Time // start times of in-flight campaigns
	closed   bool

	// Durable state (persist.go); store is nil without Config.Store.
	store       store.Store
	blobIdx     map[string]store.BlobRef // journal blob index: record ID → blob
	recovered   int64                    // campaigns requeued by restore
	spillHits   int64                    // artifacts rebuilt from spilled blobs
	spillMisses int64                    // blob lookups that fell back to a rebuild
	// journalErrs counts journal/blob writes that failed. Atomic, not
	// s.mu-guarded: journal appends run on both sides of the service
	// lock, and a failure path that retook s.mu would deadlock any
	// caller journaling while holding it.
	journalErrs atomic.Int64
	// panics counts campaigns failed on a recovered panic.
	panics atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New starts a service with cfg.Workers campaign workers. Use Open when
// cfg.Store should be replayed before the workers pick up campaigns.
func New(cfg Config) *Service {
	s := newService(cfg)
	s.startWorkers()
	return s
}

// newService builds the service without starting workers, so Open can
// restore journaled state into a quiescent queue first.
func newService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheEntries, cfg.CacheBytes),
		byID:     make(map[string]*campaign),
		byKind:   make(map[string]int64),
		runStart: make(map[string]time.Time),
		store:    cfg.Store,
	}
	if s.store != nil {
		s.blobIdx = make(map[string]store.BlobRef)
	}
	if !cfg.NoTelemetry {
		s.reg = obs.NewRegistry()
		s.traceLog = obs.NewTraceLog(cfg.TraceLog)
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

func (s *Service) startWorkers() {
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Cache exposes the artifact cache (stats, pre-warming in tests).
// Test fixture.
func (s *Service) Cache() *Cache { return s.cache }

// Registry exposes the service's metrics registry (nil with NoTelemetry).
// Test fixture.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Submit validates and enqueues a campaign, returning its ID.
func (s *Service) Submit(spec Spec) (string, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", fmt.Errorf("service: closed")
	}
	s.nextSeq++
	c := &campaign{
		id:     fmt.Sprintf("c%06d", s.nextSeq),
		spec:   spec,
		seq:    s.nextSeq,
		state:  StateQueued,
		subs:   make(map[chan Event]struct{}),
		done:   make(chan struct{}),
		queued: time.Now(),
	}
	s.mu.Unlock()

	// The fsynced submit append runs outside s.mu so a slow disk never
	// serializes the whole API behind one Submit. Journal-order safety:
	// the campaign is not registered yet, so no worker or Cancel can
	// reach it — its Start/Done/Canceled records cannot precede the
	// Submit record (Fold drops records for IDs it has not seen submit).
	s.journalSubmit(c.id, spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reg != nil {
		c.trace = obs.NewTrace(c.id, spec.Design, spec.Kind, s.reg)
		c.qspan = c.trace.Start(obs.StageQueue)
	}
	s.byKind[spec.Kind]++
	s.reg.Counter("campaigns." + spec.Kind).Add(1)
	s.byID[c.id] = c
	s.order = append(s.order, c.id)
	if s.closed {
		// Close ran while the submit record was being journaled. Mirror
		// Close's treatment of queued campaigns: canceled in-memory (so
		// Wait/Status resolve), but journaled as queued — the next Open
		// requeues it, which is what a durable queue owes an accepted
		// submission.
		c.mu.Lock()
		c.appendEventLocked("cancel", 0, "service shutting down")
		c.finishLocked(StateCanceled, nil, context.Canceled)
		c.mu.Unlock()
		s.cancels++
		return c.id, nil
	}
	s.reg.Gauge("queue_depth").Add(1)
	heap.Push(&s.queue, queueItem{c: c})
	s.cond.Signal()
	c.appendEvent("queue", 0, "queued (priority %d)", spec.Priority)
	return c.id, nil
}

func (s *Service) lookup(id string) (*campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("service: no campaign %q", id)
	}
	return c, nil
}

// Status reports a campaign snapshot.
func (s *Service) Status(id string) (Status, error) {
	c, err := s.lookup(id)
	if err != nil {
		return Status{}, err
	}
	return c.status(), nil
}

// Trace returns a finished campaign's per-stage telemetry. It errors for
// unknown campaigns, campaigns that have not completed successfully, and
// services running with telemetry disabled.
func (s *Service) Trace(id string) (*obs.StageTrace, error) {
	c, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.result == nil || c.result.Trace == nil {
		return nil, fmt.Errorf("service: campaign %q has no stage trace (state %s)", id, c.state)
	}
	return c.result.Trace, nil
}

// List returns every campaign's status in submission order.
func (s *Service) List() []Status {
	// Snapshot the campaign pointers under s.mu (Submit writes the map);
	// status() then takes each c.mu, preserving the s.mu → c.mu order.
	s.mu.Lock()
	cs := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		cs = append(cs, s.byID[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.status())
	}
	return out
}

// Events returns the events so far plus a live channel for the rest. The
// channel is closed when the campaign reaches a terminal state; cancel the
// subscription with the returned func.
func (s *Service) Events(id string) ([]Event, <-chan Event, func(), error) {
	c, err := s.lookup(id)
	if err != nil {
		return nil, nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	past := append([]Event(nil), c.events...)
	ch := make(chan Event, 256)
	if c.state.Terminal() {
		close(ch)
		return past, ch, func() {}, nil
	}
	c.subs[ch] = struct{}{}
	unsub := func() {
		c.mu.Lock()
		if _, ok := c.subs[ch]; ok {
			delete(c.subs, ch)
			close(ch)
		}
		c.mu.Unlock()
	}
	return past, ch, unsub, nil
}

// Wait blocks until the campaign finishes (or ctx expires) and returns
// its result; failed and canceled campaigns return their error.
func (s *Service) Wait(ctx context.Context, id string) (*Result, error) {
	c, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	return c.result, nil
}

// Cancel stops a campaign: dequeued if still queued, interrupted through
// its context if running. Canceling a finished campaign is a no-op.
func (s *Service) Cancel(id string) error {
	c, err := s.lookup(id)
	if err != nil {
		return err
	}
	wasQueued := false
	c.mu.Lock()
	switch c.state {
	case StateQueued:
		c.appendEventLocked("cancel", 0, "canceled while queued")
		c.finishLocked(StateCanceled, nil, context.Canceled)
		wasQueued = true
	case StateRunning:
		c.cancel() // worker observes ctx and finishes as canceled
	}
	c.mu.Unlock()
	// Lock order is always s.mu before c.mu (the worker holds s.mu while
	// starting campaigns), so the counter update happens after c.mu drops.
	if wasQueued {
		s.mu.Lock()
		s.cancels++
		s.reg.Gauge("queue_depth").Add(-1)
		s.mu.Unlock()
		// An explicit cancel is user intent and must survive a restart;
		// contrast Close, which leaves queued campaigns journaled as
		// queued so the next Open requeues them.
		s.journal(store.Record{Kind: store.KindCanceled, ID: id, Error: "canceled while queued"})
	}
	return nil
}

// Stats snapshots service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Canceled-while-queued campaigns stay in the heap until a worker
	// skips them; count only genuinely waiting ones.
	queued := 0
	for _, it := range s.queue {
		it.c.mu.Lock()
		if it.c.state == StateQueued {
			queued++
		}
		it.c.mu.Unlock()
	}
	age := 0.0
	now := time.Now()
	for _, started := range s.runStart {
		if a := now.Sub(started).Seconds(); a > age {
			age = a
		}
	}
	var byKind map[string]int64
	if len(s.byKind) > 0 {
		byKind = make(map[string]int64, len(s.byKind))
		for k, n := range s.byKind {
			byKind[k] = n
		}
	}
	st := Stats{
		Workers:    s.cfg.Workers,
		Submitted:  s.nextSeq,
		Queued:     queued,
		Running:    s.running,
		Done:       s.done,
		Failed:     s.failed,
		Canceled:   s.cancels,
		Cache:      s.cache.Stats(),
		QueueDepth: queued,
		RunningAge: age,
		ByKind:     byKind,

		CampaignPanics: s.panics.Load(),
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
		st.Recovered = s.recovered
		st.SpillHits = s.spillHits
		st.SpillMisses = s.spillMisses
		st.JournalErrors = s.journalErrs.Load()
	}
	return st
}

// pruneLocked drops the oldest terminal campaign records beyond the
// retention budget. Caller holds s.mu; c.mu nests inside per the global
// lock order.
func (s *Service) pruneLocked() {
	if s.cfg.RetainCampaigns < 0 {
		return
	}
	excess := len(s.order) - s.cfg.RetainCampaigns
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		c := s.byID[id]
		c.mu.Lock()
		terminal := c.state.Terminal()
		c.mu.Unlock()
		if excess > 0 && terminal {
			delete(s.byID, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Close cancels queued and running campaigns and waits for the workers.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for s.queue.Len() > 0 {
		it := heap.Pop(&s.queue).(queueItem)
		c := it.c
		c.mu.Lock()
		// Campaigns already canceled via Cancel were counted then; only
		// count the ones this shutdown actually cancels.
		if c.state == StateQueued {
			s.cancels++
			s.reg.Gauge("queue_depth").Add(-1)
			c.appendEventLocked("cancel", 0, "service shutting down")
			c.finishLocked(StateCanceled, nil, context.Canceled)
		}
		c.mu.Unlock()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	// The workers are drained. A Submit racing Close may still attempt
	// one journal append after this; the store rejects appends once
	// closed and the service counts that as a journal error.
	if s.store != nil {
		s.store.Close() //nolint:errcheck // shutdown path; nothing to do with it
	}
}

// worker pulls campaigns off the queue until the service closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed && s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		it := heap.Pop(&s.queue).(queueItem)
		c := it.c
		c.mu.Lock()
		if c.state != StateQueued { // canceled while queued
			c.mu.Unlock()
			s.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		c.state = StateRunning
		c.started = time.Now()
		c.cancel = cancel
		c.appendEventLocked("start", 0, "campaign running")
		c.mu.Unlock()
		s.running++
		s.runStart[c.id] = c.started
		s.reg.Gauge("queue_depth").Add(-1)
		s.reg.Gauge("workers_busy").Add(1)
		s.mu.Unlock()
		// The queue-wait span closes when work actually begins; from here
		// on the campaign's own stages take over the trace.
		c.qspan.End()
		s.journal(store.Record{Kind: store.KindStart, ID: c.id})

		res, err := s.runCampaign(ctx, c)
		cancel()

		// Finish the trace before the terminal event so subscribers that
		// observe "done" can already read it; the trace event precedes
		// "done", keeping "done" the final event of every campaign.
		var st *obs.StageTrace
		if err == nil && c.trace != nil {
			st = c.trace.Finish()
			res.Trace = st
			if werr := s.traceLog.Write(st); werr != nil {
				c.appendEvent("trace", 0, "trace log write failed: %v", werr)
			}
		}

		// A failed or canceled campaign is journaled before its waiters
		// wake, so whoever sees the failure can read its record. A done
		// campaign's record follows the wake-up, keeping the store's sync
		// off the turnaround a client waits on.
		if err != nil {
			s.journalFinish(c.id, res, err)
		}
		c.mu.Lock()
		switch {
		case err == nil:
			if st != nil {
				c.appendEventLocked("trace", 0, fmt.Sprintf("stage trace: %d stages, wall %.1fms",
					len(st.Stages), float64(st.WallUs)/1000))
			}
			c.appendEventLocked("done", 0, fmt.Sprintf("clean=%v digest=%s", res.Clean, res.Digest))
			c.finishLocked(StateDone, res, nil)
		case errors.Is(err, context.Canceled):
			c.appendEventLocked("cancel", 0, "canceled while running")
			c.finishLocked(StateCanceled, nil, err)
		default:
			c.appendEventLocked("fail", 0, err.Error())
			c.finishLocked(StateFailed, nil, err)
		}
		c.mu.Unlock()
		if err == nil {
			s.journalFinish(c.id, res, err)
		}

		s.mu.Lock()
		s.running--
		delete(s.runStart, c.id)
		s.reg.Gauge("workers_busy").Add(-1)
		switch {
		case err == nil:
			s.done++
		case errors.Is(err, context.Canceled):
			s.cancels++
		default:
			s.failed++
		}
		s.pruneLocked()
		s.mu.Unlock()
	}
}

// ---------------------------------------------------------- size estimates
//
// The cache's byte budget works on estimates: close enough to keep the
// resident set bounded, cheap enough to compute at insert time.

func netlistBytes(n *netlist.Netlist) int64 {
	b := int64(128)
	for i := range n.Cells {
		b += 96 + int64(len(n.Cells[i].Fanin))*8 + int64(len(n.Cells[i].Func.Cubes))*16 + int64(len(n.Cells[i].Name))
	}
	for i := range n.Nets {
		b += 32 + int64(len(n.Nets[i].Name))
	}
	return b
}

func machineBytes(m *sim.Machine) int64 {
	st := m.MemoryFootprint()
	return st
}

func layoutBytes(l *core.Layout) int64 {
	b := netlistBytes(l.NL) + 256
	b += int64(len(l.Packed.CLBs)) * 64
	b += int64(len(l.CLBLoc)) * 16
	b += int64(len(l.PadLoc)) * 24
	for _, rn := range l.Routes {
		b += 48 + int64(len(rn.Pins))*16 + int64(len(rn.Route))*4
	}
	return b
}

func traceBytes(tr *sim.Trace) int64 {
	return 64 + int64(len(tr.Outs)+len(tr.ProbeVals)+len(tr.States))*8
}
