package experiments

import (
	"math"
	"testing"
)

// fastCfg limits to the two smallest designs at low effort so the test
// suite stays quick; the full harness runs through cmd/benchrepro and the
// top-level benchmarks.
func fastCfg() Config {
	return Config{Designs: []string{"9sym", "c880"}, PlaceEffort: 0.25, Seed: 7}
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AreaOverhead < 0.19 {
			t.Errorf("%s: area overhead %.3f below the 20%% slack floor", r.Design, r.AreaOverhead)
		}
		if math.Abs(r.TimingOverhead) > 0.8 {
			t.Errorf("%s: timing overhead %.3f implausibly large", r.Design, r.TimingOverhead)
		}
		if r.CLBs == 0 || r.PaperCLBs == 0 {
			t.Errorf("%s: missing CLB counts", r.Design)
		}
	}
	out := FormatTable1(rows)
	if len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestFigure3Shapes(t *testing.T) {
	series, err := Figure3(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.Y) != len(FigXAxis()) {
			t.Fatalf("%s: wrong sample count", s.Design)
		}
		// Monotone nondecreasing, bounded by 100.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i]+1e-9 < s.Y[i-1] {
				t.Errorf("%s: affected%% decreased at x=%d", s.Design, s.X[i])
			}
			if s.Y[i] > 100 {
				t.Errorf("%s: affected%% exceeds 100", s.Design)
			}
		}
		// Small designs must saturate at 100% for 100-CLB insertions
		// (their whole slack is ~7-60 CLBs).
		if s.Y[len(s.Y)-1] != 100 {
			t.Errorf("%s: 100-CLB insertion should affect all tiles, got %.1f%%", s.Design, s.Y[len(s.Y)-1])
		}
	}
}

func TestFigure4Shapes(t *testing.T) {
	cfg := fastCfg()
	series, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1] {
				t.Errorf("%s: max test logic grew with more points at x=%d", s.Design, s.X[i])
			}
		}
	}
	clustered, err := Figure4Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clustered) != len(series) {
		t.Fatal("clustered variant lost series")
	}
	if out := FormatSeries("fig4", "#points", series); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestFigure5Shapes(t *testing.T) {
	rows, err := Figure5(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Two small designs × three tile sizes (no 2.5% for small ones).
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byDesign := map[string][]Fig5Row{}
	for _, r := range rows {
		if r.Speedup < 1 {
			t.Errorf("%s @%.1f%%: tiling slower than full re-P&R (%.2f)", r.Design, r.TileFrac*100, r.Speedup)
		}
		if r.RawSpeedup < r.Speedup {
			t.Errorf("%s: raw ratio below capped ratio", r.Design)
		}
		byDesign[r.Design] = append(byDesign[r.Design], r)
	}
	// Headline shape: small tiles beat the largest tiles.
	for d, rs := range byDesign {
		if rs[0].Speedup < rs[len(rs)-1].Speedup {
			t.Errorf("%s: speedup did not fall as tiles grew: %.1f -> %.1f",
				d, rs[0].Speedup, rs[len(rs)-1].Speedup)
		}
	}
	if out := FormatFigure5(rows); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestOverheadSweepShapes(t *testing.T) {
	// 9sym is logic-bound (few pads), so slack growth is visible; c880 is
	// IOB-ring-bound and its device size is set by pads, not slack.
	rows, err := OverheadSweep(Config{Designs: []string{"9sym"}, PlaceEffort: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More slack -> strictly more total free sites.
	if rows[2].TotalSlack <= rows[0].TotalSlack {
		t.Errorf("30%% slack has no more free sites than 10%%: %d vs %d", rows[2].TotalSlack, rows[0].TotalSlack)
	}
	if out := FormatOverheadSweep(rows); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestBoundaryAblationShapes(t *testing.T) {
	rows, err := BoundaryAblation(Config{Designs: []string{"9sym"}, PlaceEffort: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OptimizedCrossings > r.UniformCrossings {
			t.Errorf("%s: min-cut boundaries worse than uniform (%d > %d)",
				r.Design, r.OptimizedCrossings, r.UniformCrossings)
		}
	}
	if out := FormatBoundaryAblation(rows); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestStatsHelpers(t *testing.T) {
	if mean(nil) != 0 || median(nil) != 0 {
		t.Fatal("empty input should be 0")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if median([]float64{5, 1, 3}) != 3 {
		t.Fatal("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
}

func TestFaultCampaignShapes(t *testing.T) {
	rows, err := FaultCampaign(fastCfg(), 6, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Injections != 6 {
			t.Errorf("%s: injections = %d", r.Design, r.Injections)
		}
		if r.Detected < 1 || r.Detected > r.Injections {
			t.Errorf("%s: implausible detection count %d of %d", r.Design, r.Detected, r.Injections)
		}
		if r.Detected > 0 && r.AvgCycles < 1 {
			t.Errorf("%s: detected errors but avg cycles %.1f", r.Design, r.AvgCycles)
		}
	}
	if out := FormatFaultCampaign(rows); len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestParallelFanOutMatchesSerial(t *testing.T) {
	// Same experiment, one worker vs many: identical rows in identical
	// order (the fan-out must not perturb seeds or ordering).
	serial := fastCfg()
	serial.Workers = 1
	parallel := fastCfg()
	parallel.Workers = 4
	a, err := Figure4(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure4(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("series count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Design != b[i].Design {
			t.Fatalf("series %d: order changed: %s vs %s", i, a[i].Design, b[i].Design)
		}
		for j := range a[i].Y {
			if a[i].Y[j] != b[i].Y[j] {
				t.Fatalf("%s sample %d: %v vs %v", a[i].Design, j, a[i].Y[j], b[i].Y[j])
			}
		}
	}
}
