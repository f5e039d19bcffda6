package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/device"
	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/timing"
)

// Config tunes the reproduction runs.
type Config struct {
	// Designs filters the benchmark set (nil = all nine).
	Designs []string
	// PlaceEffort scales annealing work (1.0 = full; the default 0.5
	// reproduces shapes in minutes).
	PlaceEffort float64
	// Overhead is the tiling resource slack (paper: ~0.20).
	Overhead float64
	Seed     int64
	// Workers caps the parallel fan-out across independent designs and
	// fault campaigns (0 = GOMAXPROCS). Results are deterministic and
	// order-preserving regardless of the worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.PlaceEffort == 0 {
		c.PlaceEffort = 0.5
	}
	if c.Overhead == 0 {
		c.Overhead = 0.20
	}
	return c
}

func (c Config) catalog() []bench.Info {
	all := bench.Catalog()
	if len(c.Designs) == 0 {
		return all
	}
	var out []bench.Info
	for _, want := range c.Designs {
		for _, d := range all {
			if d.Name == want {
				out = append(out, d)
			}
		}
	}
	return out
}

// mappedCache avoids re-mapping a benchmark for every experiment; the
// mutex makes it safe under the parallel design fan-out.
var (
	mappedMu    sync.Mutex
	mappedCache = map[string]*netlist.Netlist{}
)

// Mapped returns the tech-mapped form of a benchmark (cached).
func Mapped(d bench.Info) (*netlist.Netlist, error) {
	mappedMu.Lock()
	m, ok := mappedCache[d.Name]
	mappedMu.Unlock()
	if ok {
		return m.Clone(), nil
	}
	mapped, err := synth.TechMap(d.Build())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
	}
	mappedMu.Lock()
	mappedCache[d.Name] = mapped
	mappedMu.Unlock()
	return mapped.Clone(), nil
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one line of "Tiled Physical Layout Statistics".
type Table1Row struct {
	Design         string
	CLBs           int
	AreaOverhead   float64
	TimingOverhead float64
	// Paper-reported values for side-by-side comparison.
	PaperCLBs           int
	PaperAreaOverhead   float64
	PaperTimingOverhead float64
}

var paperTable1 = map[string][2]float64{
	"9sym": {0.217, -0.045}, "styr": {0.210, 0.074}, "sand": {0.220, 0.129},
	"c499": {0.223, 0.000}, "planet1": {0.211, 0.137}, "c880": {0.227, -0.055},
	"s9234": {0.205, -0.014}, "MIPS R2000": {0.190, 0.047}, "DES": {0.200, 0.036},
}

// Table1 reproduces Table 1: per design, the packed CLB count, the area
// overhead introduced for tiling slack, and the timing overhead of the
// tiled layout versus an untiled (minimal-slack) layout of the same
// design.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	return forEachDesign(cfg, func(d bench.Info) (Table1Row, error) {
		mapped, err := Mapped(d)
		if err != nil {
			return Table1Row{}, err
		}
		// Untiled baseline: tightest device that still places and routes.
		base, err := core.BuildMapped(mapped.Clone(), core.Spec{
			Overhead: 0.02, TileFrac: 1.0, Seed: cfg.Seed, PlaceEffort: cfg.PlaceEffort,
		})
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: %s untiled: %w", d.Name, err)
		}
		tiled, err := core.BuildMapped(mapped, core.Spec{
			Overhead: cfg.Overhead, TileFrac: 0.10, Seed: cfg.Seed, PlaceEffort: cfg.PlaceEffort,
		})
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: %s tiled: %w", d.Name, err)
		}
		tBase, err := timing.Analyze(base.TimingInput(), timing.DefaultModel())
		if err != nil {
			return Table1Row{}, err
		}
		tTiled, err := timing.Analyze(tiled.TimingInput(), timing.DefaultModel())
		if err != nil {
			return Table1Row{}, err
		}
		paper := paperTable1[d.Name]
		return Table1Row{
			Design:         d.Name,
			CLBs:           tiled.NumCLBs(),
			AreaOverhead:   float64(tiled.Dev.NumCLBSites())/float64(tiled.NumCLBs()) - 1,
			TimingOverhead: timing.Overhead(tBase, tTiled),
			PaperCLBs:      d.PaperCLBs, PaperAreaOverhead: paper[0], PaperTimingOverhead: paper[1],
		}, nil
	})
}

// FormatTable1 renders rows like the paper's Table 1 with measured and
// paper values side by side.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Tiled Physical Layout Statistics (measured | paper)\n")
	fmt.Fprintf(&b, "%-11s %18s %21s %21s\n", "design", "# CLBs", "area overhead", "timing overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %8d | %6d %10.3f | %6.3f %10.3f | %6.3f\n",
			r.Design, r.CLBs, r.PaperCLBs, r.AreaOverhead, r.PaperAreaOverhead,
			r.TimingOverhead, r.PaperTimingOverhead)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 3/4

// FigXAxis matches the paper's x-axis samples: 1, 10, 19, ... 100.
func FigXAxis() []int {
	var xs []int
	for x := 1; x <= 100; x += 9 {
		xs = append(xs, x)
	}
	return xs
}

// Series is one curve of a figure.
type Series struct {
	Design string
	X      []int
	Y      []float64
}

// tiledLayout builds the standard experiment layout for a design: 20%
// overhead, tiles ≈ one tenth of the design (the paper's s9234 example
// uses ten tiles).
func tiledLayout(d bench.Info, cfg Config) (*core.Layout, error) {
	mapped, err := Mapped(d)
	if err != nil {
		return nil, err
	}
	return core.BuildMapped(mapped, core.Spec{
		Overhead: cfg.Overhead, TileFrac: 0.10, Seed: cfg.Seed, PlaceEffort: cfg.PlaceEffort,
	})
}

// Figure3 reproduces "Number of Tiles Affected by Logic Introduction":
// the percentage of tiles affected as the introduced logic grows from 1
// to 100 CLBs, with neighbor recruitment once the seed tile's slack is
// exhausted. Introductions larger than the design's total slack affect
// every tile (the paper's curves saturate at 100%).
func Figure3(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	return forEachDesign(cfg, func(d bench.Info) (Series, error) {
		l, err := tiledLayout(d, cfg)
		if err != nil {
			return Series{}, err
		}
		seed := centralTile(l)
		s := Series{Design: d.Name, X: FigXAxis()}
		for _, size := range s.X {
			tiles, err := l.AffectedTiles(seed, size)
			if err != nil {
				// Larger than total slack: all tiles affected.
				s.Y = append(s.Y, 100)
				continue
			}
			s.Y = append(s.Y, 100*float64(len(tiles))/float64(len(l.Tiles)))
		}
		return s, nil
	})
}

// centralTile picks the tile containing the device center, a deterministic
// "test point location".
func centralTile(l *core.Layout) int {
	return l.TileOf(device.XY{X: (l.Dev.W + 1) / 2, Y: (l.Dev.H + 1) / 2})
}

// Figure4 reproduces "Maximum Test Logic Size": the largest per-point test
// logic (CLBs) for 1..100 test points spread over the tiles without
// recruiting neighbors.
func Figure4(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	return forEachDesign(cfg, func(d bench.Info) (Series, error) {
		l, err := tiledLayout(d, cfg)
		if err != nil {
			return Series{}, err
		}
		s := Series{Design: d.Name, X: FigXAxis()}
		for _, k := range s.X {
			s.Y = append(s.Y, float64(l.MaxTestLogic(k)))
		}
		return s, nil
	})
}

// Figure4Clustered is the end-of-§6.1 variant where all test points land
// in one tile.
func Figure4Clustered(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	return forEachDesign(cfg, func(d bench.Info) (Series, error) {
		l, err := tiledLayout(d, cfg)
		if err != nil {
			return Series{}, err
		}
		s := Series{Design: d.Name, X: FigXAxis()}
		for _, k := range s.X {
			s.Y = append(s.Y, float64(l.MaxTestLogicClustered(k)))
		}
		return s, nil
	})
}

// FormatSeries renders figure curves as an aligned text table (one column
// per design).
func FormatSeries(title, xlabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%-8s", xlabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%12s", s.Design)
	}
	fmt.Fprintln(&b)
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].X {
		fmt.Fprintf(&b, "%-8d", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(&b, "%12.1f", s.Y[i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 5

// Fig5Row is one design × tile-size measurement.
type Fig5Row struct {
	Design   string
	TileFrac float64
	// Speedup is full re-P&R work divided by tile-local work including
	// the fixed non-incremental tail (see FixedTailFraction).
	Speedup float64
	// RawSpeedup omits the fixed tail (pure work ratio).
	RawSpeedup float64
	// VsIncremental compares the incremental-P&R model to tiling.
	VsIncremental float64
	// WallSpeedup is the measured wall-clock ratio.
	WallSpeedup float64
}

// FixedTailFraction models the back-end work that no locality can remove —
// reading the design database and regenerating the full-device bitstream —
// as a fraction of one full place-and-route. It caps attainable speedup at
// 1/FixedTailFraction (paper's best observed: 17×).
const FixedTailFraction = 0.05

// Figure5 reproduces "Place-and-Route Speedup": for each design and tile
// size (fraction of the device), one debugging change is applied and the
// tile-local effort is compared against a full re-place-and-route
// (functional-block / Quick_ECO granularity) and an incremental-P&R
// model. Following the paper, the 2.5% tile size is only run on the three
// largest designs.
func Figure5(cfg Config) ([]Fig5Row, error) {
	cfg = cfg.withDefaults()
	fracs := []float64{0.025, 0.05, 0.15, 0.25}
	large := map[string]bool{"s9234": true, "MIPS R2000": true, "DES": true}
	perDesign, err := forEachDesign(cfg, func(d bench.Info) ([]Fig5Row, error) {
		var rows []Fig5Row
		for _, frac := range fracs {
			if frac == 0.025 && !large[d.Name] {
				continue
			}
			mapped, err := Mapped(d)
			if err != nil {
				return nil, err
			}
			l, err := core.BuildMapped(mapped, core.Spec{
				Overhead: cfg.Overhead, TileFrac: frac, Seed: cfg.Seed, PlaceEffort: cfg.PlaceEffort,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s @%.3f: %w", d.Name, frac, err)
			}
			dl, err := ProbeDelta(l, 0)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s @%.3f change: %w", d.Name, frac, err)
			}
			rep, err := l.ApplyDelta(dl)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s @%.3f change: %w", d.Name, frac, err)
			}
			full, err := l.FullRePlaceRoute(cfg.Seed + 17)
			if err != nil {
				return nil, err
			}
			inc, err := l.IncrementalChange(rep.AffectedTiles, 2.5)
			if err != nil {
				return nil, err
			}
			tail := FixedTailFraction * full.Work()
			row := Fig5Row{
				Design:        d.Name,
				TileFrac:      frac,
				Speedup:       full.Work() / (rep.Effort.Work() + tail),
				RawSpeedup:    full.Work() / rep.Effort.Work(),
				VsIncremental: (inc.Work() + tail) / (rep.Effort.Work() + tail),
			}
			if rep.Effort.Wall > 0 {
				row.WallSpeedup = float64(full.Wall) / float64(rep.Effort.Wall+tailWall(tail, full))
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, rs := range perDesign {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// ProbeDelta builds a one-CLB observation change: two internal nets get
// a capture stage (buffer LUT + flip-flop, read back through
// configuration readback like real emulation probes, so no I/O pad is
// consumed) — the paper's "one affected tile" measurement unit. The
// tapped nets are offset by round so successive rounds touch different
// wiring. Figure5, the top-level BenchmarkEcoRound and the catalog
// transaction oracle in internal/core all apply it.
func ProbeDelta(l *core.Layout, round int) (core.Delta, error) {
	var added []netlist.CellID
	count, skip := 0, 0
	for ni := range l.NL.Nets {
		if count >= 2 {
			break
		}
		net := netlist.NetID(ni)
		if l.NL.Nets[ni].Dead || l.NL.Nets[ni].Driver == netlist.NilCell {
			continue
		}
		if skip < 3*round {
			skip++
			continue
		}
		d := l.NL.AddNet(fmt.Sprintf("ecoprobe%d_%d_d", round, ni))
		q := l.NL.AddNet(fmt.Sprintf("ecoprobe%d_%d_q", round, ni))
		lut, err := l.NL.AddLUT(fmt.Sprintf("ecoprobe%d_%d", round, ni), logic.BufN(), []netlist.NetID{net}, d)
		if err != nil {
			return core.Delta{}, err
		}
		ff, err := l.NL.AddDFF(fmt.Sprintf("ecoprobeff%d_%d", round, ni), d, q, 0)
		if err != nil {
			return core.Delta{}, err
		}
		added = append(added, lut, ff)
		count++
	}
	if count == 0 {
		return core.Delta{}, fmt.Errorf("experiments: no observable nets for round %d", round)
	}
	return core.Delta{Added: added}, nil
}

// tailWall converts the fixed work tail into wall time at the full run's
// observed work rate.
func tailWall(tailWork float64, full core.Effort) time.Duration {
	if full.Work() == 0 || full.Wall == 0 {
		return 0
	}
	return time.Duration(float64(full.Wall) * tailWork / full.Work())
}

// Fig5Summary computes the paper's headline aggregates: average and median
// speedup per tile size.
func Fig5Summary(rows []Fig5Row) map[float64][2]float64 {
	byFrac := make(map[float64][]float64)
	for _, r := range rows {
		byFrac[r.TileFrac] = append(byFrac[r.TileFrac], r.Speedup)
	}
	out := make(map[float64][2]float64)
	for frac, vals := range byFrac {
		out[frac] = [2]float64{mean(vals), median(vals)}
	}
	return out
}

// FormatFigure5 renders the speedup table plus the paper-style summary.
func FormatFigure5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5. Place-and-Route Speedup (tiling vs full re-P&R)")
	fmt.Fprintf(&b, "%-11s %9s %9s %11s %13s %11s\n", "design", "tile size", "speedup", "raw ratio", "vs increment", "wall ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %8.1f%% %9.1f %11.1f %13.1f %11.1f\n",
			r.Design, r.TileFrac*100, r.Speedup, r.RawSpeedup, r.VsIncremental, r.WallSpeedup)
	}
	sum := Fig5Summary(rows)
	for _, frac := range []float64{0.025, 0.05, 0.15, 0.25} {
		if v, ok := sum[frac]; ok {
			fmt.Fprintf(&b, "tile %.1f%%: average %.1f, median %.1f\n", frac*100, v[0], v[1])
		}
	}
	fmt.Fprintln(&b, "paper: avg(median) 2.5%: 2.8/5.6/17.0 (3 largest); 5%: 7.6(2.6); 15%: 2.1(1.7); 25%: 1.5(1.3)")
	return b.String()
}
