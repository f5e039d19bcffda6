package faults

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

// assertPairScanEqual requires bit-identical per-pair outcomes between
// the lane-packed and serial pair engines.
func assertPairScanEqual(t *testing.T, design string, par, ser []PairScanResult, nl *netlist.Netlist) {
	t.Helper()
	if len(par) != len(ser) {
		t.Fatalf("%s: result counts differ: %d vs %d", design, len(par), len(ser))
	}
	for i := range par {
		if par[i] != ser[i] {
			t.Fatalf("%s pair %d (%s): lane %+v != serial %+v",
				design, i, par[i].Pair.Describe(nl), par[i], ser[i])
		}
	}
}

// TestPairScanMatchesSerialAcrossCatalog is the differential guarantee
// of the pair engine: one lane carrying two stacked SetLaneFault
// perturbations must produce outcomes bit-identical to the serial path —
// netlist clone, both mutations applied in the same order, recompile —
// for every design in the catalog.
func TestPairScanMatchesSerialAcrossCatalog(t *testing.T) {
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
			limit := 3 * 64
			if testing.Short() {
				limit = 64
			}
			pu := PairUniverse(mapped, Universe(mapped), PairConfig{MaxPairs: limit, Seed: 5})
			if len(pu) == 0 {
				t.Fatalf("%s: empty pair universe", d.Name)
			}
			cfg := ScanConfig{Patterns: 32, Cycles: 2, Seed: 11}
			par, err := PairScan(prog, pu, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ser, err := SerialPairScan(prog, pu, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertPairScanEqual(t, d.Name, par, ser, mapped)
			detected := 0
			for _, r := range par {
				if r.Detected {
					detected++
				}
			}
			if detected == 0 {
				t.Fatalf("%s: no pair detected at all — pair scan is blind", d.Name)
			}
		})
	}
}

// TestPairUniverseDeterministicAndDistinctSites pins the sampler: the
// same inputs produce the same pair list, pairs never collide on one
// site (composition there is arming-order-dependent), and the cap holds.
func TestPairUniverseDeterministicAndDistinctSites(t *testing.T) {
	nl := target(t)
	u := Universe(nl)
	cfg := PairConfig{MaxPairs: 32, Seed: 3}
	p1 := PairUniverse(nl, u, cfg)
	p2 := PairUniverse(nl, u, cfg)
	if len(p1) != len(p2) {
		t.Fatalf("pair universe size unstable: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair universe order unstable at %d", i)
		}
	}
	if len(p1) > 32 {
		t.Fatalf("cap ignored: %d pairs", len(p1))
	}
	for _, p := range p1 {
		if siteNet(nl, p.A) == siteNet(nl, p.B) {
			t.Fatalf("same-site pair sampled: %s", p.Describe(nl))
		}
	}
}

// TestPairConsumesOneLane is the batch-accounting regression: one pair
// is one mutant is one lane, so 130 pairs split into 64+64+2 — the same
// shape as 130 single faults — even though 130 pairs carry 260 faults.
func TestPairConsumesOneLane(t *testing.T) {
	ps := make([]Pair, 130)
	bs := PairBatchesN(ps, 64)
	if len(bs) != 3 || len(bs[0]) != 64 || len(bs[1]) != 64 || len(bs[2]) != 2 {
		t.Fatalf("pair batching miscounts lanes: %d batches", len(bs))
	}
	if PairBatchesN(nil, 64) != nil {
		t.Fatal("empty pair list should batch to nil")
	}
	// The Fault batcher must agree — both ride the same generic.
	fs := make([]Fault, 130)
	fb := BatchesN(fs, 64)
	if len(fb) != len(bs) || len(fb[0]) != len(bs[0]) || len(fb[2]) != len(bs[2]) {
		t.Fatalf("fault and pair batch accounting diverged: %d vs %d batches", len(fb), len(bs))
	}
}

// influenceCells returns the cells that can either shape or feel the
// fault: the transitive fanout of its site net, plus the cell whose
// inputs condition the fault's activation (the site net's driver, and
// the aggressor net's driver for bridges). The conditioning cell
// matters even when the output cones are disjoint — a LUT-bit-flip
// sitting inside the partner's fanout cone fires under different
// minterms once the partner is armed, so the pair no longer superposes.
func influenceCells(nl *netlist.Netlist, f Fault) map[netlist.CellID]bool {
	site := siteNet(nl, f)
	fan := nl.Fanouts()
	cone := make(map[netlist.CellID]bool)
	for stack := []netlist.NetID{site}; len(stack) > 0; {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range fan[net] {
			if !cone[s.Cell] {
				cone[s.Cell] = true
				stack = append(stack, nl.Cells[s.Cell].Out)
			}
		}
	}
	if d := nl.Nets[site].Driver; d != netlist.NilCell {
		cone[d] = true
	}
	if f.Kind == BridgeAND || f.Kind == BridgeOR {
		if d := nl.Nets[f.Net2].Driver; d != netlist.NilCell {
			cone[d] = true
		}
	}
	return cone
}

// disjointConePairs returns sampled pairs whose two faults have
// disjoint influence sets — pairs whose effects can neither collide on
// one (cycle, PO) observation nor modulate each other's activation.
func disjointConePairs(nl *netlist.Netlist, ps []Pair) []Pair {
	var out []Pair
	for _, p := range ps {
		ca := influenceCells(nl, p.A)
		cb := influenceCells(nl, p.B)
		overlap := false
		for c := range ca {
			if cb[c] {
				overlap = true
				break
			}
		}
		if !overlap {
			out = append(out, p)
		}
	}
	return out
}

// TestPairXorSigComposesForDisjointCones is the metamorphic
// superposition property: for a pair whose faults influence disjoint
// output cones, the pair mutant's order-invariant XorSig equals the XOR
// of its components' XorSigs, and its mismatch count their sum.
func TestPairXorSigComposesForDisjointCones(t *testing.T) {
	info, err := bench.ByName("c880")
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
	cfg := ScanConfig{Patterns: 32, Cycles: 2, Seed: 9}
	pu := PairUniverse(mapped, Universe(mapped), PairConfig{MaxPairs: 256, Seed: 7})
	dis := disjointConePairs(mapped, pu)
	if len(dis) == 0 {
		t.Skip("no disjoint-cone pair sampled")
	}
	checked := 0
	for _, p := range dis {
		singles, err := Scan(prog, []Fault{p.A, p.B}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prs, err := PairScan(prog, []Pair{p}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b, pr := singles[0], singles[1], prs[0]
		if !a.Detected || !b.Detected {
			continue
		}
		// Disjoint cell cones rule out interaction; disjoint observed PO
		// columns rule out the residual collision case of a site net that
		// is itself a primary output.
		if a.POMask&b.POMask != 0 {
			continue
		}
		checked++
		if want := a.XorSig ^ b.XorSig; pr.XorSig != want {
			t.Fatalf("%s: XorSig %x != composition %x", p.Describe(mapped), pr.XorSig, want)
		}
		if want := a.Mismatches + b.Mismatches; pr.Mismatches != want {
			t.Fatalf("%s: mismatches %d != sum %d", p.Describe(mapped), pr.Mismatches, want)
		}
	}
	if checked == 0 {
		t.Skip("no disjoint-cone pair with both faults detected")
	}
}

// TestPairSignatureOrderInvariant checks that swapping a pair's fault
// order changes nothing observable: arming (A, B) and (B, A) on a lane
// must yield identical syndromes, since the faults occupy distinct sites.
func TestPairSignatureOrderInvariant(t *testing.T) {
	nl := target(t)
	prog, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScanConfig{Patterns: 16, Cycles: 2, Seed: 4}
	pu := PairUniverse(nl, Universe(nl), PairConfig{MaxPairs: 64, Seed: 2})
	swapped := make([]Pair, len(pu))
	for i, p := range pu {
		swapped[i] = Pair{A: p.B, B: p.A}
	}
	fwd, err := PairScan(prog, pu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := PairScan(prog, swapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fwd {
		if fwd[i].Syndrome != rev[i].Syndrome {
			t.Fatalf("pair %d: order-dependent syndrome: %+v vs %+v",
				i, fwd[i].Syndrome, rev[i].Syndrome)
		}
	}
}

// BenchmarkPairScan measures lane-packed pair throughput (pairs/sec in
// b.N units of one 256-pair universe scan on c880).
func BenchmarkPairScan(b *testing.B) {
	info, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	mapped, err := synth.TechMap(info.Build())
	if err != nil {
		b.Fatal(err)
	}
	prog, err := sim.Compile(mapped)
	if err != nil {
		b.Fatal(err)
	}
	pu := PairUniverse(mapped, Universe(mapped), PairConfig{MaxPairs: 256, Seed: 1})
	cfg := ScanConfig{Patterns: 32, Cycles: 2, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PairScan(prog, pu, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pu)*b.N)/b.Elapsed().Seconds(), "pairs/sec")
}
