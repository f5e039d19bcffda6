package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/synth"
)

// TestLayoutPoolCheckoutRollback exercises the pool directly: a mutated
// working copy must come back pristine, reuse must skip the clone, and a
// leaked transaction must get the copy discarded.
func TestLayoutPoolCheckoutRollback(t *testing.T) {
	info, err := bench.ByName("9sym")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.BuildMapped(mapped, core.Spec{Seed: 1, PlaceEffort: 0.3, TileFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	pool := newLayoutPool(l)

	c1, lease1, reused := pool.checkout()
	if reused {
		t.Fatal("first checkout cannot be a reuse")
	}
	if c1 == pool.pristine {
		t.Fatal("pool handed out the pristine reference")
	}
	// Mutate the working copy like a campaign would.
	if _, err := c1.ApplyDelta(core.Delta{}); err != nil {
		t.Fatal(err)
	}
	pool.checkin(c1, lease1)

	c2, lease2, reused := pool.checkout()
	if !reused {
		t.Fatal("second checkout should reuse the rolled-back copy")
	}
	if c2 != c1 {
		t.Fatal("free list returned a different copy")
	}
	if c2.StateDigest() != pool.digest {
		t.Fatal("reused copy is not pristine")
	}

	// A leaked inner transaction poisons the lease: the copy must be
	// discarded, not recycled.
	_ = c2.Checkpoint()
	pool.checkin(c2, lease2)
	if clones, reuses := pool.stats(); clones != 1 || reuses != 1 {
		t.Fatalf("stats = %d clones, %d reuses", clones, reuses)
	}
	c3, _, reused := pool.checkout()
	if reused || c3 == c2 {
		t.Fatal("poisoned copy returned to the pool")
	}
}

// TestPooledCampaignsStayDeterministic runs the same campaign spec
// repeatedly on one service: the second run must reuse the rolled-back
// pooled layout and produce the identical digest.
func TestPooledCampaignsStayDeterministic(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var digest string
	for i := 0; i < 3; i++ {
		id, err := svc.Submit(fastSpec("9sym", 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			digest = res.Digest
			continue
		}
		if res.Digest != digest {
			t.Fatalf("run %d digest %s != first %s", i, res.Digest, digest)
		}
		if res.CacheMisses != 0 {
			t.Fatalf("warm run %d still missed the cache %d times", i, res.CacheMisses)
		}
	}
}

// TestSharedLayoutBuiltOnce submits identical campaigns at once: they
// share one pristine layout, which exactly one of them builds while the
// others wait on it, and they agree on its build effort as FullWork. Run
// under -race.
func TestSharedLayoutBuiltOnce(t *testing.T) {
	const n = 4
	svc := New(Config{Workers: n})
	defer svc.Close()
	spec := fastSpec("c880", 3)
	ids := make([]string, n)
	for i := range ids {
		id, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var first *Result
	built := 0
	for _, id := range ids {
		res, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if res.Digest != first.Digest || res.FullWork != first.FullWork {
			t.Fatalf("campaigns on one layout disagree: %s/%.0f vs %s/%.0f",
				res.Digest, res.FullWork, first.Digest, first.FullWork)
		}
		events, _, unsub, err := svc.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		unsub()
		for _, ev := range events {
			if ev.Stage == "place" && strings.Contains(ev.Msg, "built") {
				built++
			}
		}
	}
	if first.FullWork <= 0 {
		t.Fatalf("no full place-and-route work recorded: %+v", first)
	}
	if built != 1 {
		t.Fatalf("%d campaigns built the layout, want exactly 1", built)
	}
}

// TestFullWorkIsBuildEffort holds a cold debug campaign's FullWork to the
// effort of an independent core.BuildMapped of the same implementation
// (the golden netlist with the same injected error) under the same
// physical-design knobs, on a plain and an overlay layout. Fault seed 3
// inverts a LUT and seed 2 rewires a LUT input, so the two builds differ.
func TestFullWorkIsBuildEffort(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, tc := range []struct {
		design  string
		overlay bool
	}{{"9sym", false}, {"c880", true}} {
		info, err := bench.ByName(tc.design)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := synth.TechMap(info.Build())
		if err != nil {
			t.Fatal(err)
		}
		works := map[float64]int64{}
		for _, seed := range []int64{3, 2} {
			spec := Spec{
				Design: tc.design, FaultSeed: seed, Overlay: tc.overlay, Seed: 1,
				Overhead: 0.20, TileFrac: 0.25, PlaceEffort: 0.3, Words: 4, Cycles: 2,
			}
			id, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := svc.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			impl := golden.Clone()
			if _, err := faults.InjectRandom(impl, seed); err != nil {
				t.Fatal(err)
			}
			cs := core.Spec{Overhead: spec.Overhead, TileFrac: spec.TileFrac, Seed: spec.Seed, PlaceEffort: spec.PlaceEffort}
			if tc.overlay {
				cs.OverlayReserve = overlay.DefaultReserve
			}
			l, err := core.BuildMapped(impl, cs)
			if err != nil {
				t.Fatal(err)
			}
			if want := l.BuildEffort.Work(); res.FullWork != want {
				t.Fatalf("%s f%d overlay=%v: FullWork %.0f, want the build's %.0f",
					tc.design, seed, tc.overlay, res.FullWork, want)
			}
			works[res.FullWork] = seed
		}
		if len(works) != 2 {
			t.Fatalf("%s: both fault seeds built with the same work %v; the check cannot tell them apart", tc.design, works)
		}
	}
}
