package experiments

import (
	"testing"
)

func TestSEUCampaign(t *testing.T) {
	cfg := Config{Designs: []string{"9sym", "styr"}, Seed: 1, Workers: 2}
	rows, err := SEUCampaign(cfg, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Faults == 0 || r.Batches != (r.Faults+63)/64 {
			t.Fatalf("%s: bad universe accounting: %+v", r.Design, r)
		}
		if r.Detected == 0 || r.Coverage <= 0 || r.Coverage > 1 {
			t.Fatalf("%s: implausible coverage: %+v", r.Design, r)
		}
		histSum := 0
		for _, n := range r.LatencyHist {
			histSum += n
		}
		if histSum != r.Detected {
			t.Fatalf("%s: latency histogram sums to %d, want %d", r.Design, histSum, r.Detected)
		}
		if r.Diagnosable <= 0 || r.Diagnosable > 1 {
			t.Fatalf("%s: implausible diagnosable fraction: %+v", r.Design, r)
		}
		if r.MeanLatencyCycles < 1 {
			t.Fatalf("%s: mean latency below 1 cycle: %+v", r.Design, r)
		}
	}
	// Deterministic apart from wall-clock throughput.
	again, err := SEUCampaign(cfg, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		a, b := rows[i], again[i]
		a.FaultsPerSec, b.FaultsPerSec = 0, 0
		if a != b {
			t.Fatalf("SEU campaign not deterministic: %+v vs %+v", a, b)
		}
	}
}
