package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgadbg/internal/sim"
)

func scanSpec(design string) Spec {
	return Spec{Design: design, Kind: KindFaultScan, Patterns: 32, Cycles: 2}
}

func TestFaultScanCampaign(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	id, err := svc.Submit(scanSpec("9sym"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsTotal == 0 || res.FaultsDetected == 0 {
		t.Fatalf("scan found nothing: %+v", res)
	}
	if res.FaultBatches != (res.FaultsTotal+63)/64 {
		t.Fatalf("batch accounting wrong: %+v", res)
	}
	if res.FaultCoverage <= 0 || res.FaultCoverage > 1 || res.MeanLatencyCycles < 1 {
		t.Fatalf("implausible coverage/latency: %+v", res)
	}
	if res.TileWork != 0 || res.Iterations != 0 {
		t.Fatalf("faultscan ran loop stages: %+v", res)
	}

	// Identical spec → identical digest (throughput fields excluded).
	id2, err := svc.Submit(scanSpec("9sym"))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := svc.Wait(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Digest != res.Digest {
		t.Fatalf("faultscan not deterministic: %s vs %s", res.Digest, res2.Digest)
	}
	// Second campaign reuses the cached golden artifact.
	if res2.CacheHits == 0 {
		t.Fatalf("warm faultscan missed the golden artifact cache: %+v", res2)
	}
}

func TestFaultScanSpecValidation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	if _, err := svc.Submit(Spec{Design: "9sym", Kind: "mutate-all-the-things"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := svc.Submit(Spec{Design: "9sym", Kind: KindFaultScan, Patterns: -1}); err == nil {
		t.Fatal("negative patterns accepted")
	}
	if _, err := svc.Submit(Spec{Design: "9sym", Kind: KindFaultScan, SimLanes: 96}); err == nil {
		t.Fatal("non-multiple-of-64 sim_lanes accepted")
	}
	if _, err := svc.Submit(Spec{Design: "9sym", Kind: KindFaultScan, SimLanes: 64 * (sim.MaxWidth + 1)}); err == nil {
		t.Fatal("oversized sim_lanes accepted")
	}
}

// TestFaultScanWideLanes runs the same scan at the default 64 lanes and
// at 256 (a width-4 lane-vector program). The fault physics — universe
// size, detections, coverage, latency — must be bit-identical; only the
// batch accounting shrinks, and the compiled golden programs must not
// share a cache entry.
func TestFaultScanWideLanes(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	run := func(lanes int) *Result {
		sp := scanSpec("9sym")
		sp.SimLanes = lanes
		id, err := svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	narrow := run(0) // defaults to 64
	wide := run(256)
	if narrow.FaultsTotal != wide.FaultsTotal ||
		narrow.FaultsDetected != wide.FaultsDetected ||
		narrow.FaultCoverage != wide.FaultCoverage ||
		narrow.MeanLatencyCycles != wide.MeanLatencyCycles {
		t.Fatalf("wide scan changed the physics:\n 64: %+v\n256: %+v", narrow, wide)
	}
	if want := (wide.FaultsTotal + 255) / 256; wide.FaultBatches != want {
		t.Fatalf("wide batches = %d, want %d", wide.FaultBatches, want)
	}
	if narrow.FaultBatches <= wide.FaultBatches {
		t.Fatalf("wide scan did not shrink batches: %d vs %d", narrow.FaultBatches, wide.FaultBatches)
	}
	// Different widths compile different programs: the wide run may hit
	// the golden netlist parse but must miss on its own golden/…/l256
	// program entry.
	if wide.CacheMisses == 0 {
		t.Fatalf("wide campaign reused a narrow-width artifact: %+v", wide)
	}
}

// TestFaultScanConcurrent runs a mixed burst of faultscan and debug
// campaigns over a shared cache — the -race target for the new service
// path.
func TestFaultScanConcurrent(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()
	designs := []string{"9sym", "styr", "c880"}
	var ids []string
	for i := 0; i < 3; i++ {
		for _, d := range designs {
			id, err := svc.Submit(scanSpec(d))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	dbg := fastSpec("9sym", 1)
	dbg.UseDict = true
	id, err := svc.Submit(dbg)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	digests := make(map[string]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			res, err := svc.Wait(ctx, id)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			st, _ := svc.Status(id)
			mu.Lock()
			defer mu.Unlock()
			key := st.Spec.Design + "/" + st.Spec.Kind
			if prev, ok := digests[key]; ok && prev != res.Digest {
				t.Errorf("%s: digest diverged under concurrency: %s vs %s", key, prev, res.Digest)
			}
			digests[key] = res.Digest
		}(id)
	}
	wg.Wait()
}

// TestFaultScanReportsDroppedFaults checks the faultscan's account of
// the work the excitation pre-filter and the two-phase scan saved: the
// span counts the universe's batches as before plus the unexcited faults
// and the batches actually replayed, and the done event names the
// unexcited count.
func TestFaultScanReportsDroppedFaults(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	id, err := svc.Submit(Spec{Design: "styr", Kind: KindFaultScan, Patterns: 64, Cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no stage trace")
	}
	ctr := res.Trace.Counters
	if ctr["fault-batches"] != int64(res.FaultBatches) {
		t.Fatalf("fault-batches counter %d, result %d", ctr["fault-batches"], res.FaultBatches)
	}
	if ctr["unexcited"] <= 0 || ctr["replayed-batches"] <= 0 {
		t.Fatalf("pre-filter counters missing: %v", ctr)
	}
	events, _, unsub, err := svc.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	unsub()
	want := fmt.Sprintf("%d never excited", ctr["unexcited"])
	for _, ev := range events {
		if strings.HasPrefix(ev.Msg, "done:") && strings.Contains(ev.Msg, want) {
			return
		}
	}
	t.Fatalf("no done event naming %q in %+v", want, events)
}

// TestFaultScanCancelWhileRunning cancels a long scan mid-flight; the
// per-batch context check must surface the cancellation.
func TestFaultScanCancelWhileRunning(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	// DES has the largest universe — thousands of batches at 256 patterns
	// keep it running long enough to cancel deterministically.
	id, err := svc.Submit(Spec{Design: "DES", Kind: KindFaultScan, Patterns: 256, Cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it actually runs, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("campaign finished before it could be canceled: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	st, err := svc.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
}

// TestUseDictCampaignSharesDictionary checks that debug campaigns with
// UseDict complete cleanly and share one cached dictionary per design.
func TestUseDictCampaignSharesDictionary(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first *Result
	for seed := int64(1); seed <= 2; seed++ {
		sp := fastSpec("9sym", seed)
		sp.UseDict = true
		id, err := svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean {
			t.Fatalf("seed %d: loop did not converge: %+v", seed, res)
		}
		if first == nil {
			first = res
		}
	}
	// The dictionary is keyed by design + detection params: the second
	// campaign must have hit it (plus golden artifact and layout misses
	// differ per fault seed, so just require more hits than the cold run).
	stats := svc.Cache().Stats()
	if stats.Hits == 0 {
		t.Fatalf("no cache hits across UseDict campaigns: %+v", stats)
	}
}
