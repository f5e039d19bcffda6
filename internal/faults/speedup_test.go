package faults

import (
	"testing"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

// compileCatalog tech-maps and compiles one catalog design.
func compileCatalog(t *testing.T, name string) *sim.Machine {
	t.Helper()
	info, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sim.Compile(mapped)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// perSecond times run three times and returns items per second of the
// fastest run, so one scheduling hiccup on a shared host does not decide
// a throughput floor.
func perSecond(t *testing.T, items int, run func() error) float64 {
	t.Helper()
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return float64(items) / best.Seconds()
}

// strideSample picks up to n evenly spaced elements, always including
// the first, so every fault kind and region is represented.
func strideSample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	stride := len(xs) / n
	out := make([]T, 0, n)
	for i := 0; i < len(xs) && len(out) < n; i += stride {
		out = append(out, xs[i])
	}
	return out
}

// TestScanFasterThanSerial is the single-fault throughput floor: the
// lane scan of the whole 9sym universe must retire faults at least 2×
// faster than SerialScan (clone, mutate, recompile, replay per fault)
// on a stride sample of the same universe and stimulus.
func TestScanFasterThanSerial(t *testing.T) {
	prog := compileCatalog(t, "9sym")
	u := Universe(prog.Netlist())
	sample := strideSample(u, 96)
	cfg := ScanConfig{Patterns: 64, Cycles: 2, Seed: 1}
	lane := perSecond(t, len(u), func() error { _, err := Scan(prog, u, cfg); return err })
	serial := perSecond(t, len(sample), func() error { _, err := SerialScan(prog, sample, cfg); return err })
	t.Logf("9sym: lane %.0f faults/s, serial %.0f faults/s, %.1fx", lane, serial, lane/serial)
	if lane < 2*serial {
		t.Fatalf("lane scan %.0f faults/s is under 2x serial %.0f faults/s", lane, serial)
	}
}

// TestPairScanFasterThanSerial is the fault-pair throughput floor: the
// lane-packed pair scan must retire pairs at least 8× faster than
// SerialPairScan (clone, apply both faults, recompile per pair) on a
// stride sample of the same pair universe.
func TestPairScanFasterThanSerial(t *testing.T) {
	for _, name := range []string{"9sym", "c880"} {
		prog := compileCatalog(t, name)
		nl := prog.Netlist()
		pu := PairUniverse(nl, Universe(nl), PairConfig{MaxPairs: 192, Seed: 1})
		sample := strideSample(pu, 64)
		cfg := ScanConfig{Patterns: 64, Cycles: 2, Seed: 1}
		lane := perSecond(t, len(pu), func() error { _, err := PairScan(prog, pu, cfg); return err })
		serial := perSecond(t, len(sample), func() error { _, err := SerialPairScan(prog, sample, cfg); return err })
		t.Logf("%s: lane %.0f pairs/s, serial %.0f pairs/s, %.1fx", name, lane, serial, lane/serial)
		if lane < 8*serial {
			t.Errorf("%s: pair scan %.0f pairs/s is under 8x serial %.0f pairs/s", name, lane, serial)
		}
	}
}
