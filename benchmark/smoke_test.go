package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the reports must match.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkReport asserts a clean run whose metrics are exactly the listed
// ones, with the listed units.
func checkReport(t *testing.T, what string, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rep.correct, rep.attempted, rep.failed)
	}
	units := make(map[string]string)
	for _, m := range rep.metrics {
		units[m.name] = m.unit
	}
	if len(units) != len(rep.metrics) || len(units) != len(want) {
		t.Errorf("%s: reports %d metrics (%d distinct), BENCHMARK.json lists %d", what, len(rep.metrics), len(units), len(want))
	}
	for _, w := range want {
		if u, ok := units[w.Name]; !ok || u != w.Unit {
			t.Errorf("%s: metric %s reported with unit %q (present=%v), BENCHMARK.json says %q", what, w.Name, u, ok, w.Unit)
		}
	}
}

// TestSmokeEveryWorkloadBothModes runs each workload on a one-spec
// warm-up and a two-spec window, untraced and traced.
func TestSmokeEveryWorkloadBothModes(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		p := w.plan(1)
		small := plan{warmup: p.warmup[:1], window: p.window[:2]}

		rep, err := measure(w, small, 0.05, 0, 1, t.TempDir())
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		checkReport(t, w.name+" untraced", rep, bf.EndToEnd)

		rep, spans, err := traced(w, small, 0.05, t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkReport(t, w.name+" traced", rep, bf.PerLayer)
		if len(spans) == 0 {
			t.Errorf("%s traced: no spans", w.name)
		}
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	var buf bytes.Buffer
	printReport(&buf, "fresh-bugs", report{correct: true, attempted: 3, metrics: []metric{
		{"latency_p90_ms", math.Inf(1), "ms", 3},
		{"setup_s", 0.5, "s", 3},
	}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var ms map[string]jsonMetric
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if ms["latency_p90_ms"].Value != math.MaxFloat64 || ms["setup_s"] != (jsonMetric{0.5, "s"}) {
		t.Errorf("metrics = %+v", ms)
	}
}
