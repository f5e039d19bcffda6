package coord

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"fpgadbg/internal/obs"
	"fpgadbg/internal/service"
	"fpgadbg/internal/store"
)

// Config tunes a Coordinator.
type Config struct {
	// Replicas is the service replica count (minimum 1).
	Replicas int
	// DataDir, when set, gives every replica a durable store under
	// <DataDir>/r<i>; empty keeps all replicas in-memory.
	DataDir string
	// StealMargin is the queue-depth imbalance (home minus shallowest)
	// beyond which a submission is stolen by the shallowest replica.
	// Default 2; negative disables stealing.
	StealMargin int
	// Service is the per-replica configuration; its Store field is
	// overridden per replica when DataDir is set.
	Service service.Config
}

// Coordinator routes campaigns across service replicas. It implements
// service.API.
type Coordinator struct {
	cfg  Config
	reps []*service.Service

	mu     sync.Mutex
	routed []int64 // submissions landed per replica (home or stolen)
	steals int64   // submissions diverted off their home replica
}

// New opens every replica (replaying its journal when durable) and
// returns the coordinator. On any replica failure the already-opened
// ones are closed.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.StealMargin == 0 {
		cfg.StealMargin = 2
	}
	co := &Coordinator{cfg: cfg, routed: make([]int64, cfg.Replicas)}
	for i := 0; i < cfg.Replicas; i++ {
		scfg := cfg.Service
		var owned store.Store // store opened here, unowned until service.Open succeeds
		if cfg.DataDir != "" {
			st, err := store.OpenDisk(filepath.Join(cfg.DataDir, fmt.Sprintf("r%d", i)), store.DiskOptions{})
			if err != nil {
				co.Close()
				return nil, fmt.Errorf("coord: replica %d store: %w", i, err)
			}
			scfg.Store = st
			owned = st
		}
		svc, err := service.Open(scfg)
		if err != nil {
			// The failed replica's store has no service to close it.
			if owned != nil {
				owned.Close() //nolint:errcheck // already failing; nothing to do with it
			}
			co.Close()
			return nil, fmt.Errorf("coord: replica %d: %w", i, err)
		}
		co.reps = append(co.reps, svc)
	}
	return co, nil
}

// Close shuts every replica down (closing its store).
func (co *Coordinator) Close() {
	for _, r := range co.reps {
		r.Close()
	}
}

// Replicas is the replica count.
func (co *Coordinator) Replicas() int { return len(co.reps) }

// Shard is the home replica of a design name: FNV-1a mod N. Stable
// across processes and restarts, so a design's artifacts keep landing on
// the replica that already holds them.
func Shard(design string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(design)) //nolint:errcheck // fnv never fails
	return int(h.Sum32() % uint32(n))
}

// publicID prefixes an inner campaign ID with its replica.
func publicID(rep int, inner string) string { return fmt.Sprintf("r%d-%s", rep, inner) }

// route parses a public ID back into (replica, inner ID).
func (co *Coordinator) route(id string) (*service.Service, string, error) {
	rest, ok := strings.CutPrefix(id, "r")
	if !ok {
		return nil, "", fmt.Errorf("coord: malformed campaign ID %q", id)
	}
	idx, inner, ok := strings.Cut(rest, "-")
	if !ok {
		return nil, "", fmt.Errorf("coord: malformed campaign ID %q", id)
	}
	rep, err := strconv.Atoi(idx)
	if err != nil || rep < 0 || rep >= len(co.reps) {
		return nil, "", fmt.Errorf("coord: no replica for campaign ID %q", id)
	}
	return co.reps[rep], inner, nil
}

// Submit routes a campaign to its design's home replica, unless the home
// queue is more than StealMargin deeper than the shallowest replica — a
// work steal then trades cache affinity for latency.
func (co *Coordinator) Submit(spec service.Spec) (string, error) {
	pick := Shard(spec.Design, len(co.reps))
	stolen := false
	if co.cfg.StealMargin >= 0 && len(co.reps) > 1 {
		depths := make([]int, len(co.reps))
		minRep := 0
		for i, r := range co.reps {
			depths[i] = r.QueueDepth()
			if depths[i] < depths[minRep] {
				minRep = i
			}
		}
		if depths[pick]-depths[minRep] > co.cfg.StealMargin {
			pick = minRep
			stolen = true
		}
	}
	inner, err := co.reps[pick].Submit(spec)
	if err != nil {
		return "", err
	}
	co.mu.Lock()
	co.routed[pick]++
	if stolen {
		co.steals++
	}
	co.mu.Unlock()
	return publicID(pick, inner), nil
}

// Status implements service.API, rewriting the inner ID to the public one.
func (co *Coordinator) Status(id string) (service.Status, error) {
	rep, inner, err := co.route(id)
	if err != nil {
		return service.Status{}, err
	}
	st, err := rep.Status(inner)
	if err != nil {
		return service.Status{}, err
	}
	st.ID = id
	return st, nil
}

// List concatenates every replica's campaigns, public IDs restored.
func (co *Coordinator) List() []service.Status {
	var out []service.Status
	for i, r := range co.reps {
		for _, st := range r.List() {
			st.ID = publicID(i, st.ID)
			out = append(out, st)
		}
	}
	return out
}

// Events implements service.API.
func (co *Coordinator) Events(id string) ([]service.Event, <-chan service.Event, func(), error) {
	rep, inner, err := co.route(id)
	if err != nil {
		return nil, nil, nil, err
	}
	return rep.Events(inner)
}

// Trace implements service.API, rewriting the campaign name so trace
// exports stay keyed by the IDs clients actually hold.
func (co *Coordinator) Trace(id string) (*obs.StageTrace, error) {
	rep, inner, err := co.route(id)
	if err != nil {
		return nil, err
	}
	tr, err := rep.Trace(inner)
	if err != nil {
		return nil, err
	}
	pub := *tr
	pub.Campaign = id
	return &pub, nil
}

// Cancel implements service.API.
func (co *Coordinator) Cancel(id string) error {
	rep, inner, err := co.route(id)
	if err != nil {
		return err
	}
	return rep.Cancel(inner)
}

// Wait blocks until the campaign finishes and returns its result.
func (co *Coordinator) Wait(ctx context.Context, id string) (*service.Result, error) {
	rep, inner, err := co.route(id)
	if err != nil {
		return nil, err
	}
	return rep.Wait(ctx, inner)
}

// Stats aggregates replica counters into one service.Stats — the same
// shape /healthz and clients already read from a single service.
func (co *Coordinator) Stats() service.Stats {
	var agg service.Stats
	byKind := make(map[string]int64)
	for _, r := range co.reps {
		st := r.Stats()
		agg.Workers += st.Workers
		agg.Submitted += st.Submitted
		agg.Queued += st.Queued
		agg.Running += st.Running
		agg.Done += st.Done
		agg.Failed += st.Failed
		agg.Canceled += st.Canceled
		agg.QueueDepth += st.QueueDepth
		if st.RunningAge > agg.RunningAge {
			agg.RunningAge = st.RunningAge
		}
		for k, n := range st.ByKind {
			byKind[k] += n
		}
		agg.Cache.Entries += st.Cache.Entries
		agg.Cache.Bytes += st.Cache.Bytes
		agg.Cache.Hits += st.Cache.Hits
		agg.Cache.Misses += st.Cache.Misses
		agg.Cache.Evictions += st.Cache.Evictions
		agg.Cache.Dedups += st.Cache.Dedups
		agg.Recovered += st.Recovered
		agg.SpillHits += st.SpillHits
		agg.SpillMisses += st.SpillMisses
		agg.JournalErrors += st.JournalErrors
		agg.CampaignPanics += st.CampaignPanics
	}
	if len(byKind) > 0 {
		agg.ByKind = byKind
	}
	return agg
}

// RouteStats snapshots the coordinator's own routing counters.
type RouteStats struct {
	// Routed is submissions landed per replica, home picks and steals
	// both.
	Routed []int64 `json:"routed"`
	// Steals counts submissions diverted off their home replica.
	Steals int64 `json:"steals"`
}

// RouteStats returns a copy of the routing counters.
func (co *Coordinator) RouteStats() RouteStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return RouteStats{Routed: append([]int64(nil), co.routed...), Steals: co.steals}
}

// MetricsDoc implements service.API: the aggregate stats, the routing
// counters, and every replica's full metrics document (stats plus
// telemetry snapshot) under "replicas".
func (co *Coordinator) MetricsDoc() any {
	reps := make([]any, len(co.reps))
	for i, r := range co.reps {
		reps[i] = r.MetricsDoc()
	}
	return struct {
		service.Stats
		Routing  RouteStats `json:"routing"`
		Replicas []any      `json:"replicas"`
	}{co.Stats(), co.RouteStats(), reps}
}
