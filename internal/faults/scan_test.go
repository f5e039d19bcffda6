package faults

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

func TestUniverseDeterministicAndComplete(t *testing.T) {
	nl := target(t)
	u1 := Universe(nl)
	u2 := Universe(nl)
	if len(u1) != len(u2) {
		t.Fatalf("universe size unstable: %d vs %d", len(u1), len(u2))
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatalf("universe order unstable at %d: %v vs %v", i, u1[i], u2[i])
		}
	}
	// 6 nets × 2 stuck-ats + LUT bits: g1 (3 in, 8) + g2 (2 in, 4) +
	// g3 (2 in, 4).
	want := 2*len(nl.Nets) + 8 + 4 + 4
	if len(u1) != want {
		t.Fatalf("universe size %d, want %d", len(u1), want)
	}
}

func TestBatches(t *testing.T) {
	fs := make([]Fault, 130)
	bs := Batches(fs)
	if len(bs) != 3 || len(bs[0]) != 64 || len(bs[1]) != 64 || len(bs[2]) != 2 {
		t.Fatalf("bad batching: %d batches", len(bs))
	}
	if Batches(nil) != nil {
		t.Fatal("empty fault list should batch to nil")
	}
}

// assertScanEqual requires bit-identical per-fault outcomes.
func assertScanEqual(t *testing.T, design string, par, ser []ScanResult, nl *netlist.Netlist) {
	t.Helper()
	if len(par) != len(ser) {
		t.Fatalf("%s: result counts differ: %d vs %d", design, len(par), len(ser))
	}
	for i := range par {
		if par[i] != ser[i] {
			t.Fatalf("%s fault %d (%s): parallel %+v != serial %+v",
				design, i, par[i].Fault.Describe(nl), par[i], ser[i])
		}
	}
}

// TestScanMatchesSerialAcrossCatalog is the differential guarantee of the
// fault-parallel engine: every 64-lane batch must produce bit-identical
// per-fault outcomes (detection, latency, signature) to serial
// single-fault runs — which go through an entirely different path: netlist
// clone + mutation + recompile (or overrides). Small designs run their
// whole universe; large ones a deterministic sample.
func TestScanMatchesSerialAcrossCatalog(t *testing.T) {
	for _, d := range bench.Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			mapped, err := synth.TechMap(d.Build())
			if err != nil {
				t.Fatal(err)
			}
			prog, err := sim.Compile(mapped)
			if err != nil {
				t.Fatal(err)
			}
			u := Universe(mapped)
			// Bound the serial (clone+recompile per fault) side: full
			// universe for small designs, a stride sample — still spanning
			// several whole batches and every fault kind — for large ones.
			limit := 3 * 64
			if testing.Short() {
				limit = 64
			}
			if len(u) > limit {
				stride := len(u) / limit
				sampled := make([]Fault, 0, limit)
				for i := 0; i < len(u) && len(sampled) < limit; i += stride {
					sampled = append(sampled, u[i])
				}
				u = sampled
			}
			cfg := ScanConfig{Patterns: 32, Cycles: 2, Seed: 11}
			par, err := Scan(prog, u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ser, err := SerialScan(prog, u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertScanEqual(t, d.Name, par, ser, mapped)
			detected := 0
			for _, r := range par {
				if r.Detected {
					detected++
				}
			}
			if detected == 0 {
				t.Fatalf("%s: no fault detected at all — scan is blind", d.Name)
			}
		})
	}
}

// TestScanBatchCallbackAborts checks the cancellation hook.
func TestScanBatchCallbackAborts(t *testing.T) {
	nl := target(t)
	prog, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	u := Universe(nl)
	calls := 0
	_, err = Scan(prog, u, ScanConfig{Patterns: 8, Cycles: 1, OnBatch: func(done, total int) error {
		calls++
		return errTestAbort
	}})
	if err != errTestAbort || calls != 1 {
		t.Fatalf("abort not honored: err=%v calls=%d", err, calls)
	}
}

var errTestAbort = errorString("abort")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestWideScanMatchesNarrow runs the same universe scan on the seed
// 64-lane program and on a width-4 (256-lane) lane-vector program
// (sim.CompileWidth). Per-fault outcomes — detection, first-failure
// cycle, signature — must be bit-identical, while the wide engine packs
// four times the faults into each batch.
func TestWideScanMatchesNarrow(t *testing.T) {
	for _, name := range []string{"9sym", "c880"} {
		t.Run(name, func(t *testing.T) {
			info, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := synth.TechMap(info.Build())
			if err != nil {
				t.Fatal(err)
			}
			narrow, err := sim.Compile(mapped)
			if err != nil {
				t.Fatal(err)
			}
			wide, err := sim.CompileWidth(mapped, 4)
			if err != nil {
				t.Fatal(err)
			}
			u := Universe(mapped)
			if len(u) > 6*64 {
				u = u[:6*64] // several wide batches is plenty
			}
			cfg := ScanConfig{Patterns: 16, Cycles: 2, Seed: 7}
			var nb, wb int
			ncfg := cfg
			ncfg.OnBatch = func(done, total int) error { nb = total; return nil }
			wcfg := cfg
			wcfg.OnBatch = func(done, total int) error { wb = total; return nil }
			nres, err := Scan(narrow, u, ncfg)
			if err != nil {
				t.Fatal(err)
			}
			wres, err := Scan(wide, u, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			assertScanEqual(t, name, wres, nres, mapped)
			if want := (len(u) + 255) / 256; wb != want {
				t.Fatalf("wide batches = %d, want %d", wb, want)
			}
			if wb >= nb {
				t.Fatalf("wide scan did not shrink batches: %d vs %d", wb, nb)
			}
		})
	}
}
