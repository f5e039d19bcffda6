package service

import (
	"sync"

	"fpgadbg/internal/core"
	"fpgadbg/internal/overlay"
)

// layoutPool shares transactional working layouts of one pristine
// place-and-route result across campaigns. It replaces the per-campaign
// core.Layout.Clone: a campaign checks a copy out, runs its whole
// debug loop inside one layout transaction, and the check-in rolls the
// transaction back — restoring the pristine state bit-identically in
// O(changes) — before the copy (with its warmed persistent router)
// returns to the free list for the next campaign. Clones happen only
// when concurrent campaigns on the same layout key outnumber the free
// copies, so steady-state warm traffic pays zero deep copies.
//
// The pristine reference layout is never handed out and never mutated;
// it only serves Clone (pool growth under concurrency) and its
// BuildEffort, the full place-and-route comparison point (FullWork).
// maxPoolFree bounds the rolled-back copies a pool retains; further
// check-ins are discarded so resident memory stays within the
// (1 + maxPoolFree) × layout bound the artifact cache is charged for.
const maxPoolFree = 3

type layoutPool struct {
	pristine *core.Layout
	digest   string
	// plan is the immutable debug-overlay plan built on the pristine
	// layout (nil for non-overlay layout keys). Campaigns bind
	// per-campaign Selectors to their working copies; the plan itself is
	// shared read-only.
	plan *overlay.Plan

	mu     sync.Mutex
	free   []*core.Layout
	clones int64 // copies ever cloned (peak concurrency demand)
	reuses int64 // rolled-back copies handed out again
}

func newLayoutPool(l *core.Layout) *layoutPool {
	return &layoutPool{pristine: l, digest: l.StateDigest()}
}

// checkout returns an exclusive working layout with an open transaction
// lease; reused reports whether it came off the free list (warm router,
// no clone paid).
func (p *layoutPool) checkout() (l *core.Layout, lease core.Checkpoint, reused bool) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		l = p.free[n-1]
		p.free = p.free[:n-1]
		p.reuses++
		reused = true
	} else {
		l = p.pristine.Clone()
		p.clones++
	}
	p.mu.Unlock()
	return l, l.Checkpoint(), reused
}

// checkin rolls the lease back and returns the copy to the free list.
// A copy whose rollback fails or whose digest no longer matches the
// pristine state (a campaign leaked an open transaction or mutated
// outside the journal) is discarded instead of poisoning later
// campaigns.
func (p *layoutPool) checkin(l *core.Layout, lease core.Checkpoint) {
	if err := l.Rollback(lease); err != nil {
		return
	}
	if l.StateDigest() != p.digest {
		return
	}
	p.mu.Lock()
	if len(p.free) < maxPoolFree {
		p.free = append(p.free, l)
	}
	p.mu.Unlock()
}

// stats returns the pool counters. Test fixture.
func (p *layoutPool) stats() (clones, reuses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clones, p.reuses
}
