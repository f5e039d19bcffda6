package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fastSpec is a campaign small enough to run in tens of milliseconds.
func fastSpec(design string, faultSeed int64) Spec {
	return Spec{
		Design: design, FaultSeed: faultSeed,
		PlaceEffort: 0.3, TileFrac: 0.25, Words: 4, Cycles: 2,
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	if _, err := svc.Submit(Spec{Design: "no-such-design"}); err == nil {
		t.Fatal("unknown design accepted")
	} else if want := "9sym"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not list valid designs", err)
	}
	if _, err := svc.Submit(Spec{Design: "9sym", Words: -1}); err == nil {
		t.Fatal("negative words accepted")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCampaignLifecycle(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	id, err := svc.Submit(fastSpec("9sym", 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || !res.Clean || res.Iterations != 1 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Digest == "" || res.TileWork <= 0 || res.FullWork <= res.TileWork {
		t.Fatalf("effort accounting wrong: %+v", res)
	}
	st, err := svc.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil || st.Events == 0 {
		t.Fatalf("status = %+v", st)
	}

	// The event log tells the whole story in order.
	events, live, unsub, err := svc.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	if _, ok := <-live; ok {
		t.Fatal("live channel of finished campaign should be closed")
	}
	wantStages := []string{"queue", "start", "synth", "compile", "inject", "place", "detect"}
	for i, stage := range wantStages {
		if i >= len(events) || events[i].Stage != stage {
			t.Fatalf("event %d = %+v, want stage %q (events: %+v)", i, events[i], stage, events)
		}
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if last := events[len(events)-1]; last.Stage != "done" {
		t.Fatalf("final event %+v, want done", last)
	}
}

func TestArtifactCacheAcrossCampaigns(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx := context.Background()

	id1, err := svc.Submit(fastSpec("9sym", 2))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := svc.Wait(ctx, id1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheMisses == 0 {
		t.Fatalf("cold campaign reported no artifact builds: %+v", res1)
	}

	// Identical spec: synth, compile, layout and baseline all hit.
	id2, err := svc.Submit(fastSpec("9sym", 2))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := svc.Wait(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheMisses != 0 || res2.CacheHits != res1.CacheHits+res1.CacheMisses {
		t.Fatalf("warm campaign should be all hits: cold %d/%d, warm %d/%d",
			res1.CacheHits, res1.CacheMisses, res2.CacheHits, res2.CacheMisses)
	}
	if res1.Digest != res2.Digest {
		t.Fatalf("cache changed the outcome: %s vs %s", res1.Digest, res2.Digest)
	}

	// Different fault seed on the same design: the golden artifact
	// (mapped netlist + compiled simulator) hits, the layout and baseline
	// miss (different implementation content).
	id3, err := svc.Submit(fastSpec("9sym", 3))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := svc.Wait(ctx, id3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.CacheHits < 1 || res3.CacheMisses == 0 {
		t.Fatalf("sibling campaign should share synth artifacts: %+v", res3)
	}
}

func TestCancelQueued(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	// Occupy the single worker so the second campaign stays queued.
	blocker, err := svc.Submit(fastSpec("styr", 3))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := svc.Submit(fastSpec("c880", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(victim)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := svc.Wait(context.Background(), victim); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	// The blocker is unaffected.
	if res, err := svc.Wait(context.Background(), blocker); err != nil || !res.Clean {
		t.Fatalf("blocker: %v %+v", err, res)
	}
	// The canceled campaign never ran.
	events, _, unsub, _ := svc.Events(victim)
	defer unsub()
	for _, ev := range events {
		if ev.Stage == "start" {
			t.Fatalf("canceled-while-queued campaign ran: %+v", events)
		}
	}
}

func TestCancelRunning(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	id, err := svc.Submit(fastSpec("styr", 3)) // ~400ms of work
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the campaign to actually start, then cancel mid-flight.
	// The worker may log "start" before the subscription exists, so the
	// history is scanned before the live channel.
	past, live, unsub, err := svc.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	deadline := time.After(30 * time.Second)
	started := false
	for _, ev := range past {
		started = started || ev.Stage == "start"
	}
	for !started {
		select {
		case ev, ok := <-live:
			if !ok {
				t.Fatal("campaign finished before it visibly started")
			}
			if ev.Stage == "start" {
				started = true
			}
		case <-deadline:
			t.Fatal("campaign never started")
		}
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Wait(context.Background(), id)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	st, _ := svc.Status(id)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
}

func TestPriorityOrdering(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	// While the blocker holds the only worker, a high-priority late
	// submission must overtake a low-priority earlier one.
	blocker, _ := svc.Submit(fastSpec("styr", 3))
	low, err := svc.Submit(fastSpec("9sym", 1))
	if err != nil {
		t.Fatal(err)
	}
	hiSpec := fastSpec("9sym", 2)
	hiSpec.Priority = 10
	high, err := svc.Submit(hiSpec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []string{blocker, low, high} {
		if _, err := svc.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	stLow, _ := svc.Status(low)
	stHigh, _ := svc.Status(high)
	if !stHigh.Started.Before(stLow.Started) {
		t.Fatalf("high priority started %v, low %v — wrong order",
			stHigh.Started, stLow.Started)
	}
}

// TestConcurrentSubmissionsDeterministic is the -race workhorse: a burst
// of concurrent campaigns over shared cached artifacts must produce
// exactly the results a serial service produces.
func TestConcurrentSubmissionsDeterministic(t *testing.T) {
	specs := []Spec{
		fastSpec("9sym", 1), fastSpec("9sym", 2), fastSpec("9sym", 3),
		fastSpec("c880", 1), fastSpec("c880", 2), fastSpec("c880", 3),
	}
	const repeats = 4 // 24 campaigns over 8 workers

	// Serial reference.
	ref := make(map[string]string) // spec key -> digest
	serial := New(Config{Workers: 1})
	for _, sp := range specs {
		id, err := serial.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := serial.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		ref[specKey(sp)] = res.Digest
	}
	serial.Close()

	// Concurrent burst, every spec repeated.
	svc := New(Config{Workers: 8})
	defer svc.Close()
	type sub struct {
		id  string
		key string
	}
	var subs []sub
	for r := 0; r < repeats; r++ {
		for _, sp := range specs {
			id, err := svc.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub{id: id, key: specKey(sp)})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, sb := range subs {
		res, err := svc.Wait(ctx, sb.id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != ref[sb.key] {
			t.Fatalf("campaign %s (%s) digest %s != serial reference %s",
				sb.id, sb.key, res.Digest, ref[sb.key])
		}
		if !res.Clean {
			t.Fatalf("campaign %s (%s) did not converge to a clean design", sb.id, sb.key)
		}
	}
	st := svc.Stats()
	if st.Done != int64(len(subs)) || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Cache.Hits == 0 {
		t.Fatal("concurrent burst never hit the artifact cache")
	}
	if st.QueueDepth != 0 || st.RunningAge != 0 {
		t.Fatalf("drained service still reports in-flight work: %+v", st)
	}
	if st.ByKind[KindDebug] != int64(len(subs)) {
		t.Fatalf("per-kind accounting = %v, want %d debug", st.ByKind, len(subs))
	}
}

func specKey(sp Spec) string {
	return fmt.Sprintf("%s/%d", sp.Design, sp.FaultSeed)
}

func TestRetentionPrunesTerminalCampaigns(t *testing.T) {
	svc := New(Config{Workers: 1, RetainCampaigns: 2})
	defer svc.Close()
	ctx := context.Background()
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := svc.Submit(fastSpec("9sym", 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if _, err := svc.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(svc.List()); got > 2 {
		t.Fatalf("retention budget 2 but %d campaigns retained", got)
	}
	if _, err := svc.Status(ids[0]); err == nil {
		t.Fatal("oldest campaign should have been pruned")
	}
	if _, err := svc.Status(ids[3]); err != nil {
		t.Fatalf("newest campaign pruned: %v", err)
	}
}

func TestCloseCancelsQueued(t *testing.T) {
	svc := New(Config{Workers: 1})
	blocker, _ := svc.Submit(fastSpec("styr", 3))
	queued, _ := svc.Submit(fastSpec("c880", 2))
	svc.Close()
	stB, _ := svc.Status(blocker)
	stQ, _ := svc.Status(queued)
	if stQ.State != StateCanceled {
		t.Fatalf("queued campaign after Close: %s", stQ.State)
	}
	if !stB.State.Terminal() {
		t.Fatalf("running campaign not terminal after Close: %s", stB.State)
	}
}

// TestSpecCeilings pins the Spec ceilings: each bound is accepted at the
// ceiling and rejected one past it, and products that would overflow an
// int are rejected rather than wrapped.
func TestSpecCeilings(t *testing.T) {
	for _, tc := range []struct {
		sp Spec
		ok bool
	}{
		{Spec{Words: 256, Cycles: 4}, true},
		{Spec{Words: 257, Cycles: 4}, false},
		{Spec{Words: 1 << 62, Cycles: 4}, false},
		{Spec{Words: 4, Cycles: 1 << 62}, false},
		{Spec{Patterns: 4096, Cycles: 2}, true},
		{Spec{Patterns: 4097, Cycles: 2}, false},
		{Spec{Patterns: 1 << 62, Cycles: 4}, false},
		{Spec{MaxIters: 64, MaxRounds: 64, ProbesPerRound: 64}, true},
		{Spec{MaxIters: 65}, false},
		{Spec{MaxRounds: 65}, false},
		{Spec{ProbesPerRound: 65}, false},
	} {
		tc.sp.Design = "9sym"
		if err := tc.sp.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate = %v, want ok=%v", tc.sp, err, tc.ok)
		}
	}
}
