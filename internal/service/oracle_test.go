package service

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestOracleSharedAcrossWorkers runs the search-won 9sym repairs at 64
// and 256 lanes on two workers at once, in two waves. Both waves must
// reproduce the pinned digests. The cache must hold at most one oracle
// entry per (golden, stimulus) — detection, observation and verification
// for each of the search's two refinement rounds — however many suspect
// sets and lane widths read them, and the warm wave must read every
// golden stream from those shared entries without one golden replay.
func TestOracleSharedAcrossWorkers(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var specs []Spec
	for _, sp := range pinSpecs() {
		if sp.Design == "9sym" && sp.Kind == KindRepair && sp.SimLanes != 0 {
			specs = append(specs, sp)
		}
	}
	for wave := 0; wave < 2; wave++ {
		ids := make([]string, len(specs))
		for i, sp := range specs {
			id, err := svc.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		var hits, misses int64
		for i, id := range ids {
			res, err := svc.Wait(ctx, id)
			if err != nil {
				t.Fatalf("wave %d %s: %v", wave, pinName(specs[i]), err)
			}
			if want := pinnedDigests[pinName(specs[i])]; res.Digest != want {
				t.Errorf("wave %d %s: digest %s, want %s", wave, pinName(specs[i]), res.Digest, want)
			}
			hits += res.Trace.Counters["oracle-hit"]
			misses += res.Trace.Counters["oracle-miss"]
		}
		if hits == 0 {
			t.Fatalf("wave %d: no oracle lookup hit (%d misses)", wave, misses)
		}
		if wave == 1 && misses != 0 {
			t.Fatalf("warm wave replayed the golden model %d times", misses)
		}
	}
	svc.cache.mu.Lock()
	n := 0
	for k := range svc.cache.entries {
		if strings.HasPrefix(k, "oracle/") {
			n++
		}
	}
	svc.cache.mu.Unlock()
	if n == 0 || n > 6 {
		t.Fatalf("%d oracle entries for one golden design and one detection stimulus, want 1..6", n)
	}
}

// overlaySpecs are overlay debug campaigns in the quick-overlay shape:
// zero-CAD probe rounds, so the implementation netlist changes only at
// ECO commits.
func overlaySpecs() []Spec {
	var specs []Spec
	for _, d := range []string{"9sym", "c880", "c499"} {
		for fs := int64(1); fs <= 4; fs++ {
			sp := Spec{Design: d, FaultSeed: fs, Overlay: true, Words: 4}
			specs = append(specs, sp)
		}
	}
	return specs
}

// TestImplOracleSharedAcrossWorkers runs overlay debug campaigns on two
// workers at once, in two waves. Both waves must agree on every digest,
// the cold wave must have recorded implementation streams under impl/,
// and the warm wave must read every one of them from those shared
// entries without replaying an implementation.
func TestImplOracleSharedAcrossWorkers(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	specs := overlaySpecs()
	digests := make([]string, len(specs))
	for wave := 0; wave < 2; wave++ {
		ids := make([]string, len(specs))
		for i, sp := range specs {
			id, err := svc.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		var hits, misses int64
		for i, id := range ids {
			res, err := svc.Wait(ctx, id)
			if err != nil {
				t.Fatalf("wave %d spec %d: %v", wave, i, err)
			}
			if wave == 0 {
				digests[i] = res.Digest
			} else if res.Digest != digests[i] {
				t.Errorf("spec %d: warm digest %s, cold %s", i, res.Digest, digests[i])
			}
			hits += res.Trace.Counters["impl-oracle-hit"]
			misses += res.Trace.Counters["impl-oracle-miss"]
		}
		if wave == 0 && misses == 0 {
			t.Fatal("cold wave recorded no implementation stream")
		}
		if wave == 1 && (misses != 0 || hits == 0) {
			t.Fatalf("warm wave: %d implementation-memo hits, %d misses; want hits only", hits, misses)
		}
	}
	svc.cache.mu.Lock()
	n := 0
	for k := range svc.cache.entries {
		if strings.HasPrefix(k, "impl/") {
			n++
		}
	}
	svc.cache.mu.Unlock()
	if n == 0 {
		t.Fatal("no impl/ entry in the artifact cache")
	}
}

// TestOneCompilePerNetlistState reruns overlay debug campaigns warm and
// requires at most one implementation compile per netlist state: the
// initial implementation, plus one per committed correction and per
// MISR-insertion fallback round (an iteration commits at most one
// correction). The golden program comes from the
// cache, so every compile stage in a warm trace is an implementation's.
func TestOneCompilePerNetlistState(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	repaired := 0
	for _, sp := range overlaySpecs() {
		waitResult(t, svc, sp)
		res := waitResult(t, svc, sp)
		compiles := 0
		if st := res.Trace.Stage("compile"); st != nil {
			compiles = st.Count
		}
		states := 1 + res.Iterations + res.OverlayFallbacks
		t.Logf("%s f%d: %d compile(s), %d iteration(s), %d fallback round(s), fixed %v", sp.Design, sp.FaultSeed, compiles, res.Iterations, res.OverlayFallbacks, res.Fixed)
		if res.Detected && compiles == 0 {
			t.Errorf("%s f%d: detected without compiling the implementation", sp.Design, sp.FaultSeed)
		}
		if compiles > states {
			t.Errorf("%s f%d: %d compiles for %d netlist states (fixed %v, %d fallbacks)",
				sp.Design, sp.FaultSeed, compiles, states, res.Fixed, res.OverlayFallbacks)
		}
		repaired += res.Repaired
	}
	if repaired == 0 {
		t.Fatal("no campaign repaired anything; the bar is vacuous")
	}
}
