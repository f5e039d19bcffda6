package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/testgen"
)

// SimBenchRow is one (design, lane width) point of the simulator
// micro-benchmark: ns per pattern-cycle (64·width parallel patterns per
// evaluation) through the compiled trace path and through the legacy
// map-driven Step interpreter, plus their ratio. cmd/benchrepro -json
// serializes these rows to BENCH_sim.json so the performance trajectory
// is tracked across PRs. Rows with LaneWidth 0 (from older files) are
// width-1 rows.
type SimBenchRow struct {
	Design      string  `json:"design"`
	LUTs        int     `json:"luts"`
	DFFs        int     `json:"dffs"`
	Cycles      int     `json:"cycles"`
	LaneWidth   int     `json:"lane_width"`
	TraceNs     float64 `json:"trace_ns_per_pattern_cycle"`
	StepNs      float64 `json:"step_ns_per_pattern_cycle"`
	Speedup     float64 `json:"speedup"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// SimBench measures the emulation substrate on the tech-mapped designs,
// one row per design per requested lane width (64·W lanes). Unlike the
// other experiments it runs designs serially — concurrent timing would
// skew the numbers it exists to record.
func SimBench(cfg Config, cycles int, widths []int) ([]SimBenchRow, error) {
	cfg = cfg.withDefaults()
	if cycles < 1 {
		cycles = 256
	}
	if len(widths) == 0 {
		widths = []int{1}
	}
	var rows []SimBenchRow
	for _, d := range cfg.catalog() {
		mapped, err := Mapped(d)
		if err != nil {
			return nil, err
		}
		pis := mapped.SortedPINames()

		ref, err := sim.CompileReference(mapped)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		maps := testgen.Random(pis, cycles, cfg.Seed)
		step := func() {
			ref.Reset()
			for _, in := range maps {
				if _, err := ref.Step(in); err != nil {
					panic(err) // inputs come from the design's own PI list
				}
			}
		}
		step() // warm
		stepNs := timeNs(step)

		luts, dffs := 0, 0
		for ci := range mapped.Cells {
			c := &mapped.Cells[ci]
			if c.Dead {
				continue
			}
			if c.Kind == netlist.KindLUT {
				luts++
			} else {
				dffs++
			}
		}

		for _, W := range widths {
			m, err := sim.CompileWidth(mapped, W)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
			}
			if err := m.BindNames(pis); err != nil {
				return nil, err
			}
			stim := testgen.RandomBlocks(len(pis)*W, cycles, cfg.Seed)
			var tr sim.Trace
			m.RunTraceInto(&tr, stim) // warm buffers
			traceNs, allocs := timeNsAllocs(func() { m.RunTraceInto(&tr, stim) })

			patCycles := float64(cycles * 64 * W)
			rows = append(rows, SimBenchRow{
				Design: d.Name, LUTs: luts, DFFs: dffs, Cycles: cycles,
				LaneWidth:   W,
				TraceNs:     traceNs / patCycles,
				StepNs:      stepNs / float64(cycles*64),
				Speedup:     stepNs / float64(cycles*64) / (traceNs / patCycles),
				AllocsPerOp: allocs,
			})
		}
	}
	return rows, nil
}

// timeNs runs f over several measurement epochs and returns the best
// epoch's mean ns per call.
func timeNs(f func()) float64 {
	ns, _ := timeNsAllocs(f)
	return ns
}

// timeNsAllocs times f over several independent epochs (each at least
// 20ms and two calls) and returns the minimum per-call time across
// epochs, plus the mean heap allocations per call over all of them. The
// minimum is the robust estimator on a shared machine: competing load
// can only ever make an epoch slower, never faster.
func timeNsAllocs(f func()) (float64, float64) {
	const (
		epochs = 5
		target = 20 * time.Millisecond
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	best := math.Inf(1)
	for e := 0; e < epochs; e++ {
		n := 0
		start := time.Now()
		var el time.Duration
		for {
			f()
			n++
			if el = time.Since(start); el >= target && n >= 2 {
				break
			}
		}
		calls += n
		if per := float64(el.Nanoseconds()) / float64(n); per < best {
			best = per
		}
	}
	runtime.ReadMemStats(&after)
	return best, float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// FormatSimBench renders the micro-benchmark table.
func FormatSimBench(rows []SimBenchRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Simulator micro-benchmark (ns per pattern-cycle)")
	fmt.Fprintf(&b, "%-11s %6s %6s %6s %10s %10s %9s %8s\n",
		"design", "LUTs", "DFFs", "lanes", "trace", "step", "speedup", "allocs")
	for _, r := range rows {
		w := r.LaneWidth
		if w == 0 {
			w = 1
		}
		fmt.Fprintf(&b, "%-11s %6d %6d %6d %10.2f %10.2f %8.1fx %8.1f\n",
			r.Design, r.LUTs, r.DFFs, 64*w, r.TraceNs, r.StepNs, r.Speedup, r.AllocsPerOp)
	}
	return b.String()
}
