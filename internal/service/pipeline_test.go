package service

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpgadbg/internal/store"
)

// TestStagePanicFailsAlone panics once at each pipeline stage boundary.
// The panicking campaign must fail alone: its error names the stage, its
// event log carries the stack, the journal holds its failure and the
// panic counters move. The next campaign on the same layout key must
// still finish with its pinned digest, on a fresh clone whenever the
// panic hit after the layout was leased.
func TestStagePanicFailsAlone(t *testing.T) {
	var debugSpec, scanSpec Spec
	for _, sp := range pinSpecs() {
		switch pinName(sp) {
		case "9sym/debug/f3/ov=false":
			debugSpec = sp
		case "9sym/faultscan/f0/ov=false":
			scanSpec = sp
		}
	}
	mem := store.NewMem()
	svc, err := Open(Config{Workers: 1, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	t.Cleanup(func() { stageHook = nil })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// submit runs spec to the end and returns its ID, result, event log
	// and error.
	submit := func(spec Spec) (string, *Result, []Event, error) {
		id, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, werr := svc.Wait(ctx, id)
		events, _, unsub, err := svc.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		unsub()
		return id, res, events, werr
	}
	// Warm up, so the layout pool holds a rolled-back copy.
	if _, _, _, err := submit(debugSpec); err != nil {
		t.Fatal(err)
	}

	for i, tc := range []struct {
		stage  string
		spec   Spec
		leased bool // the panic hits with a layout checked out
	}{
		{"golden", debugSpec, false},
		{"inject", debugSpec, false},
		{"lease", debugSpec, false},
		{"session", debugSpec, true},
		{"loop", debugSpec, true},
		{"faultscan", scanSpec, false},
	} {
		var fired atomic.Bool
		stageHook = func(stage string) {
			if stage == tc.stage && fired.CompareAndSwap(false, true) {
				panic("injected at " + stage)
			}
		}
		id, _, events, err := submit(tc.spec)
		if err == nil || !strings.Contains(err.Error(), "stage "+tc.stage) {
			t.Fatalf("%s: campaign error %v, want one naming the stage", tc.stage, err)
		}
		if st, _ := svc.Status(id); st.State != StateFailed {
			t.Fatalf("%s: state %s, want failed", tc.stage, st.State)
		}
		stack := false
		for _, ev := range events {
			stack = stack || ev.Stage == "panic" && strings.Contains(ev.Msg, "goroutine")
		}
		if !stack {
			t.Fatalf("%s: no panic event with a stack in %+v", tc.stage, events)
		}
		if n := svc.Stats().CampaignPanics; n != int64(i+1) {
			t.Fatalf("%s: CampaignPanics = %d, want %d", tc.stage, n, i+1)
		}
		if n := svc.Registry().Counter("campaign_panics").Value(); n != int64(i+1) {
			t.Fatalf("%s: campaign_panics counter = %d, want %d", tc.stage, n, i+1)
		}
		rec, err := mem.Recover()
		if err != nil {
			t.Fatal(err)
		}
		journaled := false
		for _, cs := range rec.Campaigns {
			journaled = journaled || cs.ID == id && cs.State == store.KindFailed && strings.Contains(cs.Error, tc.stage)
		}
		if !journaled {
			t.Fatalf("%s: journal holds no failed record for %s", tc.stage, id)
		}

		_, res, events, err := submit(tc.spec)
		if err != nil {
			t.Fatalf("%s: campaign after the panic: %v", tc.stage, err)
		}
		if want := pinnedDigests[pinName(tc.spec)]; res.Digest != want {
			t.Fatalf("%s: digest after the panic %s, want %s", tc.stage, res.Digest, want)
		}
		for _, ev := range events {
			if ev.Stage == "place" && tc.leased != strings.Contains(ev.Msg, "working copy cloned") {
				t.Fatalf("%s: next campaign's lease %q; a layout that saw a panic must not be pooled", tc.stage, ev.Msg)
			}
		}
	}
}
