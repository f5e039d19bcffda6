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
