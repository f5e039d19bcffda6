package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/route"
)

// The layout transaction journal. A Checkpoint opens a transaction:
// from then on every physical mutation (placement, pads, routes, the
// fresh-name counter) appends its inverse to an undo log, and the
// netlist and packing journals (netlist/journal.go, pack/journal.go)
// record their layers' mutations too. Rollback replays all three logs in
// reverse, restoring the layout bit-identically in O(changes) — the
// whole-layout Clone the debug loop used to pay per speculative change
// becomes a pair of integer marks. Checkpoints nest (stack discipline):
// ApplyDelta opens one internally so a mid-apply failure can never leave
// a half-mutated layout, and debug rounds wrap netlist edits plus the
// physical update in an outer one.

type physOpKind uint8

const (
	// opCLBLoc records an overwritten CLB location.
	opCLBLoc physOpKind = iota
	// opCLBLocGrow records the CLBLoc length before an extension.
	opCLBLocGrow
	// opPad records an overwritten or newly created pad location.
	opPad
	// opRoute records an overwritten, created or deleted route entry.
	opRoute
	// opSeq records the fresh-name counter.
	opSeq
	// opConfig records an external configuration mutation (overlay tap
	// selection) as an opaque undo closure.
	opConfig
)

type physOp struct {
	kind    physOpKind
	idx     int
	net     netlist.NetID
	xy      device.XY
	existed bool
	route   *route.Net
	undo    func()
}

// Checkpoint marks a consistent layout state that Rollback can restore.
// Checkpoints obey stack discipline: the most recently opened one must be
// rolled back or committed first.
type Checkpoint struct {
	phys, nl, pack int
	depth          int
}

// Checkpoint opens a transaction and returns its restore point. Every
// mutation of the layout — including netlist edits made directly on
// l.NL through its journaled methods — is recorded until the checkpoint
// is committed or rolled back.
func (l *Layout) Checkpoint() Checkpoint {
	l.txnDepth++
	if l.txnDepth == 1 {
		l.NL.SetJournaling(true)
		l.Packed.SetJournaling(true)
	}
	return Checkpoint{
		phys:  len(l.journal),
		nl:    l.NL.JournalLen(),
		pack:  l.Packed.JournalLen(),
		depth: l.txnDepth,
	}
}

// Commit closes the checkpoint keeping all changes. Outer checkpoints
// remain able to roll the changes back; when the outermost commits, the
// journals are discarded.
func (l *Layout) Commit(cp Checkpoint) {
	if l.txnDepth != cp.depth {
		panic(fmt.Sprintf("core: Commit out of order: depth %d, checkpoint %d", l.txnDepth, cp.depth))
	}
	l.txnDepth--
	if l.txnDepth == 0 {
		l.journal = l.journal[:0]
		l.NL.TruncateJournal(0)
		l.NL.SetJournaling(false)
		l.Packed.TruncateJournal(0)
		l.Packed.SetJournaling(false)
	}
}

// Rollback restores the layout to the checkpointed state in O(changes)
// and closes the checkpoint.
func (l *Layout) Rollback(cp Checkpoint) error {
	if l.txnDepth != cp.depth {
		return fmt.Errorf("core: Rollback out of order: depth %d, checkpoint depth %d", l.txnDepth, cp.depth)
	}
	for i := len(l.journal) - 1; i >= cp.phys; i-- {
		op := &l.journal[i]
		switch op.kind {
		case opCLBLoc:
			l.CLBLoc[op.idx] = op.xy
		case opCLBLocGrow:
			l.CLBLoc = l.CLBLoc[:op.idx]
		case opPad:
			if op.existed {
				l.PadLoc[op.net] = op.xy
			} else {
				delete(l.PadLoc, op.net)
			}
		case opRoute:
			if op.existed {
				l.Routes[op.net] = op.route
			} else {
				delete(l.Routes, op.net)
			}
		case opSeq:
			l.seq = op.idx
		case opConfig:
			op.undo()
		}
	}
	l.journal = l.journal[:cp.phys]
	l.Packed.RollbackJournal(cp.pack)
	l.NL.RollbackJournal(cp.nl)
	l.txnDepth--
	if l.txnDepth == 0 {
		l.NL.SetJournaling(false)
		l.Packed.SetJournaling(false)
	}
	return nil
}

// ---------------------------------------------------------------- helpers
//
// All physical mutations inside transactions must go through these so
// the journal stays complete. No-op writes are skipped.

func (l *Layout) setCLBLoc(idx int, p device.XY) {
	if l.CLBLoc[idx] == p {
		return
	}
	if l.txnDepth > 0 {
		l.journal = append(l.journal, physOp{kind: opCLBLoc, idx: idx, xy: l.CLBLoc[idx]})
	}
	l.CLBLoc[idx] = p
}

func (l *Layout) growCLBLoc(n int) {
	if n <= len(l.CLBLoc) {
		return
	}
	if l.txnDepth > 0 {
		l.journal = append(l.journal, physOp{kind: opCLBLocGrow, idx: len(l.CLBLoc)})
	}
	for len(l.CLBLoc) < n {
		l.CLBLoc = append(l.CLBLoc, device.XY{})
	}
}

func (l *Layout) setPad(net netlist.NetID, p device.XY) {
	old, existed := l.PadLoc[net]
	if existed && old == p {
		return
	}
	if l.txnDepth > 0 {
		l.journal = append(l.journal, physOp{kind: opPad, net: net, xy: old, existed: existed})
	}
	l.PadLoc[net] = p
}

func (l *Layout) setRoute(net netlist.NetID, rn *route.Net) {
	if l.txnDepth > 0 {
		old, existed := l.Routes[net]
		l.journal = append(l.journal, physOp{kind: opRoute, net: net, route: old, existed: existed})
	}
	l.Routes[net] = rn
}

func (l *Layout) deleteRoute(net netlist.NetID) {
	old, existed := l.Routes[net]
	if !existed {
		return
	}
	if l.txnDepth > 0 {
		l.journal = append(l.journal, physOp{kind: opRoute, net: net, route: old, existed: true})
	}
	delete(l.Routes, net)
}

// RecordUndo journals an external configuration mutation (an overlay tap
// selection, which lives outside the layout's own state) so Rollback
// restores it along with the physical state. The caller invokes
// RecordUndo after applying the mutation, passing its inverse; outside a
// transaction nothing is recorded — the mutation is simply permanent.
func (l *Layout) RecordUndo(fn func()) {
	if l.txnDepth > 0 {
		l.journal = append(l.journal, physOp{kind: opConfig, undo: fn})
	}
}

func (l *Layout) setSeq(v int) {
	if l.seq == v {
		return
	}
	if l.txnDepth > 0 {
		l.journal = append(l.journal, physOp{kind: opSeq, idx: l.seq})
	}
	l.seq = v
}

// ---------------------------------------------------------------- router

// ensureRouter returns the layout's persistent routing engine, creating
// it on first use. The router owns the congestion arrays, heap and
// Dijkstra scratch across every incremental update — the routing analog
// of the compiled simulator program.
func (l *Layout) ensureRouter() *route.Router {
	if l.router == nil || l.router.Grid() != l.Grid {
		l.router = route.NewRouter(l.Grid)
	}
	l.router.Obs = l.obs
	return l.router
}

// InvalidateRouter drops the persistent routing engine; the next update
// rebuilds it from scratch. Differential tests use this to compare the
// persistent path against fresh-router routing.
func (l *Layout) InvalidateRouter() { l.router = nil }

// ---------------------------------------------------------------- digest

// StateDigest fingerprints the complete mutable layout state — netlist,
// packing, placement, pads, routes and the fresh-name counter — for
// bit-identity assertions around checkpoints, rollbacks and differential
// routing oracles.
func (l *Layout) StateDigest() string {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	h.Write([]byte(l.NL.Fingerprint()))
	w(uint64(len(l.Packed.CLBs)))
	for i := range l.Packed.CLBs {
		clb := &l.Packed.CLBs[i]
		w(uint64(len(clb.LUTs))<<32 | uint64(len(clb.FFs)))
		for _, id := range clb.LUTs {
			w(uint64(id))
		}
		for _, id := range clb.FFs {
			w(uint64(id))
		}
	}
	w(uint64(len(l.CLBLoc)))
	for _, p := range l.CLBLoc {
		w(uint64(uint32(p.X))<<32 | uint64(uint32(p.Y)))
	}
	pads := make([]int, 0, len(l.PadLoc))
	for net := range l.PadLoc {
		pads = append(pads, int(net))
	}
	sort.Ints(pads)
	w(uint64(len(pads)))
	for _, net := range pads {
		p := l.PadLoc[netlist.NetID(net)]
		w(uint64(uint32(net)))
		w(uint64(uint32(p.X))<<32 | uint64(uint32(p.Y)))
	}
	routes := make([]int, 0, len(l.Routes))
	for net := range l.Routes {
		routes = append(routes, int(net))
	}
	sort.Ints(routes)
	w(uint64(len(routes)))
	for _, net := range routes {
		rn := l.Routes[netlist.NetID(net)]
		w(uint64(uint32(net)))
		w(uint64(len(rn.Route)))
		for _, e := range rn.Route {
			w(uint64(uint32(e)))
		}
	}
	w(uint64(len(l.fixedWiring)))
	for _, e := range l.fixedWiring {
		w(uint64(uint32(e)))
	}
	w(uint64(l.seq))
	return fmt.Sprintf("%016x", h.Sum64())
}
