package fpgadbg_test

// Top-level benchmarks: one per table and figure of the paper's evaluation
// section, plus micro-benchmarks of the substrate and ablation benches for
// the design choices called out in DESIGN.md. Each macro benchmark prints
// its reproduced rows once (the same output cmd/benchrepro gives).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The macro benches default to a reduced benchmark set so the whole suite
// finishes in minutes; set -benchfull to run all nine designs exactly as
// EXPERIMENTS.md records them.

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/debug"
	"fpgadbg/internal/experiments"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/testgen"
)

var benchFull = flag.Bool("benchfull", false, "run macro benchmarks on all nine designs")

// cfg picks the benchmark scope.
func cfg() experiments.Config {
	c := experiments.Config{PlaceEffort: 0.4, Seed: 1}
	if !*benchFull {
		c.Designs = []string{"9sym", "c499", "c880", "s9234"}
	}
	return c
}

var printOnce sync.Map

func printFirst(b *testing.B, key, out string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(out)
	}
}

// simTraceCycles is the stimulus depth of the simulator micro-benchmarks;
// with 64 parallel patterns per word, one run is simTraceCycles×64
// pattern-cycles.
const simTraceCycles = 256

// simBenchSet lists the designs the simulator micro-benches run on
// (the reduced set, or all nine under -benchfull).
func simBenchSet() []string {
	if ds := cfg().Designs; len(ds) > 0 {
		return ds
	}
	var names []string
	for _, d := range bench.Catalog() {
		names = append(names, d.Name)
	}
	return names
}

// simBenchMapped tech-maps a benchmark for the simulator micro-benches.
func simBenchMapped(b *testing.B, name string) *sim.Machine {
	b.Helper()
	info, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	mapped, err := experiments.Mapped(info)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.Compile(mapped)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkSimTrace measures the compiled execution core: one op replays
// simTraceCycles cycles of random stimulus through RunTraceInto. The
// extra metric is ns per pattern-cycle (64 patterns per word); steady
// state must report 0 allocs/op.
func BenchmarkSimTrace(b *testing.B) {
	for _, name := range simBenchSet() {
		b.Run(name, func(b *testing.B) {
			m := simBenchMapped(b, name)
			pis := m.Netlist().SortedPINames()
			if err := m.BindNames(pis); err != nil {
				b.Fatal(err)
			}
			stim := testgen.RandomBlocks(len(pis), simTraceCycles, 1)
			var tr sim.Trace
			m.RunTraceInto(&tr, stim) // warm the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RunTraceInto(&tr, stim)
			}
			b.StopTimer()
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perOp/float64(simTraceCycles*64), "ns/pattern-cycle")
		})
	}
}

// BenchmarkWideTrace measures the wide-word vector engine: the same
// replay as BenchmarkSimTrace but compiled at width 8 (512 lanes), with
// wide random stimulus so every lane word carries distinct patterns. The
// denominator scales with the lane count, so ns/pattern-cycle is
// directly comparable with BenchmarkSimTrace — the ratio is the vector
// win the acceptance bar tracks.
func BenchmarkWideTrace(b *testing.B) {
	const W = 8
	for _, name := range simBenchSet() {
		b.Run(name, func(b *testing.B) {
			info, err := bench.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			mapped, err := experiments.Mapped(info)
			if err != nil {
				b.Fatal(err)
			}
			m, err := sim.CompileWidth(mapped, W)
			if err != nil {
				b.Fatal(err)
			}
			pis := m.Netlist().SortedPINames()
			if err := m.BindNames(pis); err != nil {
				b.Fatal(err)
			}
			stim := testgen.RandomBlocks(len(pis)*W, simTraceCycles, 1)
			var tr sim.Trace
			m.RunTraceInto(&tr, stim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RunTraceInto(&tr, stim)
			}
			b.StopTimer()
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perOp/float64(simTraceCycles*64*W), "ns/pattern-cycle")
		})
	}
}

// BenchmarkSimStep is the baseline: the same stimulus through the legacy
// map-driven cover interpreter (per-cycle map allocation and string
// hashing), for the trace-vs-step speedup the acceptance tracks.
func BenchmarkSimStep(b *testing.B) {
	for _, name := range simBenchSet() {
		b.Run(name, func(b *testing.B) {
			info, err := bench.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			mapped, err := experiments.Mapped(info)
			if err != nil {
				b.Fatal(err)
			}
			m, err := sim.CompileReference(mapped)
			if err != nil {
				b.Fatal(err)
			}
			pis := mapped.SortedPINames()
			stim := testgen.Random(pis, simTraceCycles, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				for _, in := range stim {
					if _, err := m.Step(in); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perOp/float64(simTraceCycles*64), "ns/pattern-cycle")
		})
	}
}

// Fault-scan benchmark scope: every fault of the universe sees
// faultScanPatterns broadcast patterns held faultScanCycles cycles.
const (
	faultScanPatterns = 64
	faultScanCycles   = 2
)

// faultScanSetup compiles a design and enumerates its fault universe.
func faultScanSetup(b *testing.B, name string) (*sim.Machine, []faults.Fault) {
	b.Helper()
	m := simBenchMapped(b, name)
	return m, faults.Universe(m.Netlist())
}

// BenchmarkFaultScan measures the 64-lane fault-parallel mutant engine:
// one op fault-simulates the design's whole exhaustive universe (stuck-at
// per net + single LUT-bit flips) in 64-fault batches sharing one
// compiled program. The metric is faults/sec, to compare with
// BenchmarkFaultScanSerial on the identical broadcast stimulus;
// internal/faults TestScanFasterThanSerial holds the floor.
func BenchmarkFaultScan(b *testing.B) {
	for _, name := range simBenchSet() {
		b.Run(name, func(b *testing.B) {
			prog, u := faultScanSetup(b, name)
			scfg := faults.ScanConfig{Patterns: faultScanPatterns, Cycles: faultScanCycles, Seed: 1}
			warm := u
			if len(warm) > 64 {
				warm = warm[:64]
			}
			if _, err := faults.Scan(prog, warm, scfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := faults.Scan(prog, u, scfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(u))*float64(b.N)/b.Elapsed().Seconds(), "faults/sec")
		})
	}
}

// BenchmarkFaultScanDetect is BenchmarkFaultScan through the
// detection-only entry the campaign service's faultscans use
// (faults.Detect): the same universe and stimulus, but only each fault's
// verdict and first failing cycle, in two phases that stop replaying
// faults once they are detected.
func BenchmarkFaultScanDetect(b *testing.B) {
	for _, name := range simBenchSet() {
		b.Run(name, func(b *testing.B) {
			prog, u := faultScanSetup(b, name)
			scfg := faults.ScanConfig{Patterns: faultScanPatterns, Cycles: faultScanCycles, Seed: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := faults.Detect(prog, u, scfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(u))*float64(b.N)/b.Elapsed().Seconds(), "faults/sec")
		})
	}
}

// BenchmarkFaultScanSerial is the serial per-fault baseline for the same
// workload: every fault is a netlist clone + mutation + recompile + full
// replay of the identical broadcast stimulus (faults.SerialScan, the
// engine's differential oracle). A stride sample bounds the run; the
// metric is still faults/sec.
func BenchmarkFaultScanSerial(b *testing.B) {
	for _, name := range simBenchSet() {
		b.Run(name, func(b *testing.B) {
			prog, u := faultScanSetup(b, name)
			if len(u) > 128 {
				stride := len(u) / 128
				sample := make([]faults.Fault, 0, 128)
				for i := 0; i < len(u) && len(sample) < 128; i += stride {
					sample = append(sample, u[i])
				}
				u = sample
			}
			scfg := faults.ScanConfig{Patterns: faultScanPatterns, Cycles: faultScanCycles, Seed: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := faults.SerialScan(prog, u, scfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(u))*float64(b.N)/b.Elapsed().Seconds(), "faults/sec")
		})
	}
}

// BenchmarkTable1 regenerates Table 1: tiled layout statistics (CLB
// counts, area overhead, timing overhead vs an untiled layout).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "table1", experiments.FormatTable1(rows))
	}
}

// BenchmarkFigure3 regenerates Figure 3: % of tiles affected as the
// introduced test logic grows from 1 to 100 CLBs.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure3(cfg())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "fig3", experiments.FormatSeries(
			"Figure 3. Number of Tiles Affected by Logic Introduction (% affected)", "#CLBs", series))
	}
}

// BenchmarkFigure4 regenerates Figure 4: the maximum per-point test-logic
// size for 1..100 spread test points.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure4(cfg())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "fig4", experiments.FormatSeries(
			"Figure 4. Maximum Test Logic Size (CLBs per point)", "#points", series))
	}
}

// BenchmarkFigure5 regenerates Figure 5: place-and-route speedup of
// tile-local updates over full re-place-and-route for tile sizes of 2.5,
// 5, 15 and 25% of the device.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(cfg())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "fig5", experiments.FormatFigure5(rows))
	}
}

// Benchmark_AblationOverhead sweeps the resource-slack knob (10/20/30%),
// the §3.2 tradeoff.
func Benchmark_AblationOverhead(b *testing.B) {
	c := cfg()
	c.Designs = []string{"c499", "s9234"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OverheadSweep(c)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "abl-overhead", experiments.FormatOverheadSweep(rows))
	}
}

// Benchmark_AblationClusteredPoints runs Figure 4's clustered-distribution
// variant (end of §6.1).
func Benchmark_AblationClusteredPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure4Clustered(cfg())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "abl-clustered", experiments.FormatSeries(
			"Ablation: Figure 4, clustered test points", "#points", series))
	}
}

// Benchmark_AblationBoundaries compares uniform tile boundaries against
// the min-crossing sweep ("inter-tile interconnect is minimized").
func Benchmark_AblationBoundaries(b *testing.B) {
	c := cfg()
	c.Designs = []string{"9sym", "c880"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BoundaryAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "abl-bounds", experiments.FormatBoundaryAblation(rows))
	}
}

// BenchmarkDebugLoop measures a complete detect→localize→correct campaign
// on c880 with an injected design error — the end-to-end cost the paper
// optimizes.
func BenchmarkDebugLoop(b *testing.B) {
	info, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	golden, err := synth.TechMap(info.Build())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impl := golden.Clone()
		if _, err := faults.InjectRandom(impl, 1); err != nil {
			b.Fatal(err)
		}
		lay, err := core.BuildMapped(impl, core.Spec{Seed: 1, PlaceEffort: 0.3, TileFrac: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := debug.NewSession(golden, lay, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.RunLoopCore(3, 8, 4, 3, 4); err != nil {
			b.Fatal(err)
		}
		if _, err := lay.FullRePlaceRoute(sess.Seed + 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildDES measures the initial tiled place-and-route of the
// largest benchmark.
func BenchmarkBuildDES(b *testing.B) {
	nl := bench.DES()
	mapped, err := synth.TechMap(nl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildMapped(mapped.Clone(), core.Spec{Seed: 1, PlaceEffort: 0.3, TileFrac: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTechMapMIPS measures the front end on the biggest netlist.
func BenchmarkTechMapMIPS(b *testing.B) {
	nl := bench.MIPS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.TechMap(nl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEcoRound measures one localization-style physical update on
// the transactional engine: a checkpoint, a two-net probe insertion
// through ApplyDelta on the persistent router, and the rollback — the
// unit of speculative work the debug loop pays per round (DESIGN.md
// §11).
func BenchmarkEcoRound(b *testing.B) {
	info, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	golden, err := synth.TechMap(info.Build())
	if err != nil {
		b.Fatal(err)
	}
	lay, err := core.BuildMapped(golden.Clone(), core.Spec{Seed: 1, PlaceEffort: 0.3, TileFrac: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	digest := lay.StateDigest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := lay.Checkpoint()
		d, err := experiments.ProbeDelta(lay, i%4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lay.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
		if err := lay.Rollback(cp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if lay.StateDigest() != digest {
		b.Fatal("benchmark rounds leaked into the layout")
	}
}

// BenchmarkProbeSwitch measures one probe round on the pre-reserved
// debug overlay: a checkpoint, a tap-mux selection (pure configuration
// mutation, zero place/route/STA) and the rollback — the zero-CAD
// counterpart of BenchmarkEcoRound (DESIGN.md §16).
func BenchmarkProbeSwitch(b *testing.B) {
	info, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	golden, err := synth.TechMap(info.Build())
	if err != nil {
		b.Fatal(err)
	}
	lay, err := core.BuildMapped(golden.Clone(), core.Spec{
		Seed: 1, PlaceEffort: 0.3, TileFrac: 0.1, OverlayReserve: overlay.DefaultReserve,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := overlay.Build(lay, overlay.DefaultChannels)
	if err != nil {
		b.Fatal(err)
	}
	// One covered net per channel, rotated per iteration so the muxes
	// actually move.
	chanNames := make([][]string, plan.Channels)
	for ci := range lay.NL.Cells {
		c := &lay.NL.Cells[ci]
		if c.Dead || c.Out == netlist.NilNet {
			continue
		}
		name := lay.NL.NetName(c.Out)
		if ch, ok := plan.Channel(name); ok {
			chanNames[ch] = append(chanNames[ch], name)
		}
	}
	sel := plan.NewSelector(lay)
	digest := lay.StateDigest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch []string
		for ch := range chanNames {
			if n := len(chanNames[ch]); n > 0 {
				batch = append(batch, chanNames[ch][i%n])
			}
		}
		cp := lay.Checkpoint()
		if err := sel.Select(batch); err != nil {
			b.Fatal(err)
		}
		if err := lay.Rollback(cp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if lay.StateDigest() != digest {
		b.Fatal("benchmark rounds leaked into the layout")
	}
}
