package core

import (
	"slices"
	"testing"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/timing"
)

// rewireOneCell moves input 0 of one multi-input LUT onto a primary
// input that reaches no pin of the LUT's CLB: a correction that changes
// wiring, so ApplyDelta re-places and re-routes the LUT's tile.
func rewireOneCell(t *testing.T, l *Layout) Delta {
	t.Helper()
	table := l.netPinTable()
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if c.Dead || c.Kind != netlist.KindLUT || len(c.Fanin) != 2 {
			continue
		}
		site := l.CLBLoc[l.Packed.CellCLB[netlist.CellID(ci)]]
		for _, pi := range l.NL.PIs {
			if slices.Contains(table[pi], site) {
				continue
			}
			if err := l.NL.SetFanin(netlist.CellID(ci), 0, pi); err != nil {
				t.Fatal(err)
			}
			return Delta{Modified: []netlist.CellID{netlist.CellID(ci)}}
		}
	}
	t.Fatal("no 2-input LUT to rewire")
	return Delta{}
}

func TestCheckpointRollbackRestoresLayout(t *testing.T) {
	l := buildTest(t, 120, Spec{Seed: 21, TileFrac: 0.1})
	pristine := l.StateDigest()

	cp := l.Checkpoint()
	d := insertObservers(t, l, 3)
	if _, err := l.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if l.StateDigest() == pristine {
		t.Fatal("delta did not change the state digest")
	}
	if err := l.Rollback(cp); err != nil {
		t.Fatal(err)
	}
	if got := l.StateDigest(); got != pristine {
		t.Fatalf("rollback digest %s != pristine %s", got, pristine)
	}
	if err := VerifyLayout(l); err != nil {
		t.Fatal(err)
	}

	// The rolled-back layout must remain fully usable.
	if _, err := l.ApplyDelta(insertObservers(t, l, 2)); err != nil {
		t.Fatal(err)
	}
	if err := VerifyLayout(l); err != nil {
		t.Fatal(err)
	}
}

func TestNestedCheckpoints(t *testing.T) {
	l := buildTest(t, 120, Spec{Seed: 22, TileFrac: 0.1})
	pristine := l.StateDigest()

	outer := l.Checkpoint()
	if _, err := l.ApplyDelta(insertObservers(t, l, 2)); err != nil {
		t.Fatal(err)
	}
	afterOuter := l.StateDigest()

	inner := l.Checkpoint()
	if _, err := l.ApplyDelta(rewireOneCell(t, l)); err != nil {
		t.Fatal(err)
	}
	if err := l.Rollback(inner); err != nil {
		t.Fatal(err)
	}
	if got := l.StateDigest(); got != afterOuter {
		t.Fatalf("inner rollback digest %s != %s", got, afterOuter)
	}

	// Inner commit keeps the change but the outer rollback undoes both.
	inner2 := l.Checkpoint()
	if _, err := l.ApplyDelta(rewireOneCell(t, l)); err != nil {
		t.Fatal(err)
	}
	l.Commit(inner2)
	if err := l.Rollback(outer); err != nil {
		t.Fatal(err)
	}
	if got := l.StateDigest(); got != pristine {
		t.Fatalf("outer rollback digest %s != pristine %s", got, pristine)
	}
	if err := VerifyLayout(l); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDeltaFailureRollsBack pins the transactional contract: a
// failed physical update — here the re-route of a rewired LUT input that
// exhausts channel capacity — must leave the layout bit-identical to its
// pre-call state, with VerifyLayout clean after the automatic rollback.
func TestApplyDeltaFailureRollsBack(t *testing.T) {
	// Strangle the channels: the layout's existing wiring already exceeds
	// capacity 1, so the region re-route can never converge. The netlist
	// edit preceding the delta sits inside an outer checkpoint, as in the
	// debug loop.
	l2 := buildTest(t, 120, Spec{Seed: 23, TileFrac: 0.1})
	oldCap := l2.Grid.Cap
	want := l2.StateDigest()
	cp := l2.Checkpoint()
	l2.Grid.Cap = 1
	d2 := rewireOneCell(t, l2)
	if _, err := l2.ApplyDelta(d2); err == nil {
		t.Fatal("ApplyDelta succeeded with capacity 1")
	}
	l2.Grid.Cap = oldCap
	if err := l2.Rollback(cp); err != nil {
		t.Fatal(err)
	}
	if got := l2.StateDigest(); got != want {
		t.Fatalf("failure rollback digest %s != pristine %s", got, want)
	}
	if err := VerifyLayout(l2); err != nil {
		t.Fatal(err)
	}

	// An unpackable delta (more new logic than the device can absorb)
	// must also roll back cleanly.
	l3 := buildTest(t, 120, Spec{Seed: 24, TileFrac: 0.1, Overhead: 0.12})
	want3 := l3.StateDigest()
	free := 0
	for _, f := range l3.TileFree() {
		free += f
	}
	cp3 := l3.Checkpoint()
	big := insertObservers(t, l3, 2*free+4)
	if _, err := l3.ApplyDelta(big); err == nil {
		t.Fatal("oversized insertion succeeded")
	}
	if err := l3.Rollback(cp3); err != nil {
		t.Fatal(err)
	}
	if got := l3.StateDigest(); got != want3 {
		t.Fatalf("oversized-delta rollback digest %s != pristine %s", got, want3)
	}
	if err := VerifyLayout(l3); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentRouterMatchesScratch is the router differential oracle
// at the layout level: the persistent engine (scratch reused across
// updates) must leave the layout bit-identical to fresh-router routing
// of the same deltas.
func TestPersistentRouterMatchesScratch(t *testing.T) {
	warm := buildTest(t, 150, Spec{Seed: 25, TileFrac: 0.1})
	cold := warm.Clone()
	if warm.StateDigest() != cold.StateDigest() {
		t.Fatal("clone digest differs")
	}
	for round := 0; round < 3; round++ {
		dw := insertObservers(t, warm, 2)
		dc := insertObservers(t, cold, 2)
		if _, err := warm.ApplyDelta(dw); err != nil {
			t.Fatal(err)
		}
		cold.InvalidateRouter()
		if _, err := cold.ApplyDelta(dc); err != nil {
			t.Fatal(err)
		}
		if w, c := warm.StateDigest(), cold.StateDigest(); w != c {
			t.Fatalf("round %d: persistent router digest %s != scratch %s", round, w, c)
		}
	}
}

// TestRollbackRestoresCriticalPath pins the timing view of a layout
// transaction: a full analysis of TimingInput reads the same critical
// delay before two applied deltas and after rolling them back.
func TestRollbackRestoresCriticalPath(t *testing.T) {
	l := buildTest(t, 150, Spec{Seed: 26, TileFrac: 0.1})
	critical := func() float64 {
		t.Helper()
		rep, err := timing.Analyze(l.TimingInput(), timing.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Critical
	}
	base := critical()
	if base <= 0 {
		t.Fatal("no critical path")
	}

	cp := l.Checkpoint()
	if _, err := l.ApplyDelta(insertObservers(t, l, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ApplyDelta(rewireOneCell(t, l)); err != nil {
		t.Fatal(err)
	}
	if err := l.Rollback(cp); err != nil {
		t.Fatal(err)
	}
	if got := critical(); got != base {
		t.Fatalf("critical after rollback %v != %v", got, base)
	}
}
