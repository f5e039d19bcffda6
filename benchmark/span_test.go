package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 1, StartNs: 12, EndNs: 20},
		{ID: 3, Parent: 0, StartNs: 25, EndNs: 50},  // overlaps span 1: 25..30 counts once
		{ID: 4, Parent: 0, StartNs: 90, EndNs: 120}, // runs past its parent: clipped at 100
	}
	// The root's children cover 10..50 and 90..100.
	want := []int64{100 - 40 - 10, 20 - 8, 8, 25, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	if c := traceCoverage(spans); c != 0.5 {
		t.Errorf("coverage = %v, want 0.5", c)
	}
}

func TestTracerNestsAndWritesNDJSON(t *testing.T) {
	tr := newTracer()
	tr.campaign, tr.phase = 7, "window"
	root := tr.start("bench.campaign")
	id, _ := tr.do("core.build", func() error {
		tr.do("core.digest", func() error { return nil })
		return nil
	})
	tr.attr(id, "place_moves", 12)
	tr.end(root)
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	parents := []int{-1, 0, 1}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Campaign != 7 || s.Phase != "window" || s.EndNs < s.StartNs {
			t.Errorf("span %d = %+v", i, s)
		}
	}
	if tr.spans[1].Layer != "core" {
		t.Errorf("layer of core.build = %q", tr.spans[1].Layer)
	}

	var buf bytes.Buffer
	if err := writeSpans(&buf, "rerun-probe", 3, tr.spans); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("%d NDJSON lines, want 3", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"workload", "seed", "id", "parent", "name", "layer", "campaign", "phase", "start_ns", "end_ns", "attrs"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("span record lacks %q: %s", k, lines[1])
		}
	}
}
