package service

import (
	"context"
	"fmt"
	"sync"

	"fpgadbg/internal/core"
)

// baselineFuture is the full re-place-and-route baseline of one pristine
// layout, computed on a goroutine of its own. The baseline only reads the
// pristine layout and is first needed when a campaign assembles its
// result, so it runs alongside the campaign's debugging loop instead of
// ahead of it. The artifact cache holds the future itself: campaigns
// sharing a layout share one in-flight baseline.
type baselineFuture struct {
	once sync.Once
	done chan struct{}
	eff  core.Effort
	err  error
}

func newBaselineFuture() *baselineFuture {
	return &baselineFuture{done: make(chan struct{})}
}

// start runs build on a new goroutine counted in wg; only the first call
// does anything. A panic in build is recovered into the future's error.
// On failure onErr runs before any waiter is released, so a waiter that
// sees the error can rely on it.
func (f *baselineFuture) start(wg *sync.WaitGroup, build func() (core.Effort, error), onErr func()) {
	f.once.Do(func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(f.done)
			func() {
				defer func() {
					if r := recover(); r != nil {
						f.err = fmt.Errorf("service: baseline build panicked: %v", r)
					}
				}()
				f.eff, f.err = build()
			}()
			if f.err != nil {
				onErr()
			}
		}()
	})
}

// wait returns the baseline once it is done, or ctx's error if ctx ends
// first.
func (f *baselineFuture) wait(ctx context.Context) (core.Effort, error) {
	select {
	case <-f.done:
		return f.eff, f.err
	case <-ctx.Done():
		return core.Effort{}, ctx.Err()
	}
}
