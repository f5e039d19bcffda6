package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentHammer drives one registry from many goroutines —
// counters, gauges and histograms by overlapping names — while a reader
// goroutine snapshots continuously. Run under -race this is the data-race
// proof for the registry; the final totals prove no increment was lost.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const iters = 2000
	names := []string{"alpha", "beta", "gamma"}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent snapshotter
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := reg.Snapshot()
				for name, v := range snap.Counters {
					if v < 0 {
						t.Errorf("counter %s went negative: %d", name, v)
						return
					}
				}
			}
		}
	}()

	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				name := names[(g+i)%len(names)]
				reg.Counter(name).Add(1)
				reg.Gauge("depth." + name).Add(1)
				reg.Histogram("lat." + name).Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	snap := reg.Snapshot()
	sum := int64(0)
	for _, n := range names {
		sum += snap.Counters[n]
	}
	if sum != goroutines*iters {
		t.Fatalf("lost increments: %d != %d", sum, goroutines*iters)
	}
	hsum := int64(0)
	for _, n := range names {
		hsum += snap.Histograms["lat."+n].Count
	}
	if hsum != goroutines*iters {
		t.Fatalf("lost observations: %d != %d", hsum, goroutines*iters)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples at ~1µs, 10 at ~1ms: p50 must sit in the µs decade and
	// p99 in the ms decade (quantiles are power-of-2 bucket upper bounds).
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count %d != 110", s.Count)
	}
	if s.P50Ms <= 0 || s.P50Ms > 0.01 {
		t.Fatalf("p50 %.6fms outside the µs decade", s.P50Ms)
	}
	if s.P99Ms < 0.5 || s.P99Ms > 4 {
		t.Fatalf("p99 %.6fms outside the ms decade", s.P99Ms)
	}
	if s.MeanMs <= 0 || s.SumMs <= 0 {
		t.Fatalf("mean/sum not positive: %+v", s)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},                       // 1ns -> 2^0
		{2, 1},                       // exact power
		{3, 2},                       // rounds up
		{1024, 10},                   // exact
		{1025, 11},                   // rounds up
		{time.Hour, histBuckets - 1}, // clamps
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestNilSafety exercises every nil-receiver path the instrumented code
// relies on when telemetry is disabled.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(1)
	reg.Gauge("x").Add(1)
	reg.Histogram("x").Observe(time.Second)
	if v := reg.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter read %d", v)
	}
	if s := reg.Snapshot(); s.Counters != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}

	var tr *Trace
	sp := tr.Start(StageDetect)
	sp.Add("n", 1)
	sp.End()
	tr.Add("n", 1)
	if tr.Finish() != nil || tr.Spans() != nil {
		t.Fatal("nil trace produced output")
	}

	var tl *TraceLog
	if err := tl.Write(&StageTrace{}); err != nil {
		t.Fatalf("nil tracelog write: %v", err)
	}
	if NewTraceLog(nil) != nil {
		t.Fatal("NewTraceLog(nil) must return nil")
	}
}
