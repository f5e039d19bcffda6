package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v, ok := percentile(ramp(100), 0.90)
	if v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (ok=%v), want 90 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(ramp(99), 0.90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it but was reported ok")
	}
	if v, ok := percentile(ramp(20), 0.50); v != 10 || !ok {
		t.Errorf("p50 of 1..20 = %v (ok=%v), want 10", v, ok)
	}
}

func TestFailuresCountAsInfiniteLatency(t *testing.T) {
	xs := ramp(100)
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _ := percentile(xs, 0.90); math.IsInf(v, 1) {
		t.Errorf("10 failures in 100 should leave p90 finite, got %v", v)
	}
	xs[10] = math.Inf(1)
	if v, _ := percentile(xs, 0.90); !math.IsInf(v, 1) {
		t.Errorf("11 failures in 100 must push p90 to +Inf, got %v", v)
	}
}

func TestLatenciesAreRawWithFailuresInfinite(t *testing.T) {
	a, b := debugSpec("9sym", 1), debugSpec("c880", 1)
	window := []campaign{
		{spec: a, latency: 30 * time.Millisecond},
		{spec: b, latency: 50 * time.Millisecond},
		{spec: a, latency: 20 * time.Millisecond},
		{spec: a, err: errors.New("timed out"), latency: time.Millisecond},
	}
	got := latencies(window)
	want := []float64{30, 50, 20, math.Inf(1)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("campaign %d: latency %v ms, want %v", i, got[i], want[i])
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}
