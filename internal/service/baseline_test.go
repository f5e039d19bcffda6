package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgadbg/internal/core"
)

func TestBaselineFutureResult(t *testing.T) {
	var wg sync.WaitGroup
	f := newBaselineFuture()
	f.start(&wg, func() (core.Effort, error) {
		return core.Effort{PlaceMoves: 7, RouteExpansions: 5}, nil
	}, func() { t.Error("onErr ran for a successful baseline") })
	eff, err := f.wait(context.Background())
	if err != nil || eff.Work() != 12 {
		t.Fatalf("wait = %v, %v; want 12 units of work", eff, err)
	}
	wg.Wait()
}

func TestBaselineFutureFailure(t *testing.T) {
	boom := errors.New("route: unroutable")
	for name, build := range map[string]func() (core.Effort, error){
		"error": func() (core.Effort, error) { return core.Effort{}, boom },
		"panic": func() (core.Effort, error) { panic("place: corrupt layout") },
	} {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			f := newBaselineFuture()
			failed := false
			f.start(&wg, build, func() { failed = true })
			_, err := f.wait(context.Background())
			if err == nil {
				t.Fatal("failed baseline reported no error")
			}
			if name == "error" && !errors.Is(err, boom) {
				t.Fatalf("error %v does not wrap the build error", err)
			}
			if name == "panic" && !strings.Contains(err.Error(), "corrupt layout") {
				t.Fatalf("error %v does not carry the panic value", err)
			}
			// onErr runs before the future is released, so the write is
			// ordered before this read.
			if !failed {
				t.Fatal("onErr did not run before the waiter was released")
			}
			// A second waiter sees the same outcome.
			if _, err2 := f.wait(context.Background()); err2 != err {
				t.Fatalf("second wait = %v, want %v", err2, err)
			}
			wg.Wait()
		})
	}
}

func TestBaselineFutureWaitGroupAndCancel(t *testing.T) {
	var wg sync.WaitGroup
	release := make(chan struct{})
	f := newBaselineFuture()
	f.start(&wg, func() (core.Effort, error) {
		<-release
		return core.Effort{PlaceMoves: 1}, nil
	}, func() {})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait on a canceled context = %v", err)
	}
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("wait group drained while the baseline was still running")
	default:
	}
	close(release)
	<-drained
	if eff, err := f.wait(context.Background()); err != nil || eff.PlaceMoves != 1 {
		t.Fatalf("wait after completion = %v, %v", eff, err)
	}
}

// TestFailedBaselineLeavesNoCacheEntry runs the service's cache-then-start
// sequence with a failing build: the cached future must be gone by the
// time a waiter sees the failure, so the next campaign rebuilds it.
func TestFailedBaselineLeavesNoCacheEntry(t *testing.T) {
	c := NewCache(0, 0)
	var wg sync.WaitGroup
	const key = "layout/x/fullpr"
	v, hit, err := c.GetOrBuild(key, func() (any, int64, error) {
		return newBaselineFuture(), 64, nil
	})
	if err != nil || hit {
		t.Fatalf("GetOrBuild = %v, %v", hit, err)
	}
	f := v.(*baselineFuture)
	f.start(&wg, func() (core.Effort, error) { panic("boom") }, func() { c.Forget(key, f) })
	if _, err := f.wait(context.Background()); err == nil {
		t.Fatal("panicking baseline reported no error")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("failed baseline is still cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("cache not empty after forget: %+v", st)
	}
	wg.Wait()
}

func TestCacheForgetKeepsNewerValue(t *testing.T) {
	c := NewCache(0, 0)
	old, cur := new(int), new(int)
	c.Put("k", cur, 10)
	c.Forget("k", old) // stale value: the current entry stays
	if v, ok := c.Get("k"); !ok || v != cur {
		t.Fatal("Forget dropped a value it was not given")
	}
	c.Forget("missing", cur) // no entry: nothing happens
	c.Forget("k", cur)
	if _, ok := c.Get("k"); ok {
		t.Fatal("Forget kept the value it was given")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("byte accounting after forget: %+v", st)
	}
}

// TestSharedBaselineFuture submits identical campaigns at once: they share
// one pristine layout and therefore one baseline future, which all of them
// wait on while it may still be running. Run under -race.
func TestSharedBaselineFuture(t *testing.T) {
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
			t.Fatalf("campaigns on one baseline disagree: %s/%.0f vs %s/%.0f",
				res.Digest, res.FullWork, first.Digest, first.FullWork)
		}
		events, _, unsub, err := svc.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		unsub()
		for _, ev := range events {
			if ev.Stage == "baseline" && strings.Contains(ev.Msg, "built") {
				built++
			}
		}
	}
	if first.FullWork <= 0 {
		t.Fatalf("no baseline work recorded: %+v", first)
	}
	if built != 1 {
		t.Fatalf("%d campaigns built the baseline, want exactly 1", built)
	}
}
