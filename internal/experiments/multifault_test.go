package experiments

import "testing"

// TestMultiFaultCampaignBars pins the multi-fault coverage floors on the
// two smallest catalog designs: at least 70% of detected fault pairs get
// a probe-free, simulation-exact verdict from the composition dictionary,
// and every model — pairs, windowed SEUs, interconnect — detects
// something.
func TestMultiFaultCampaignBars(t *testing.T) {
	cfg := Config{Designs: []string{"9sym", "c880"}, Seed: 1}
	rows, err := MultiFaultCampaign(cfg, 64, 2, 192)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.PairsDetected == 0 || r.SEUDetected == 0 || r.InterconnectCoverage <= 0 {
			t.Errorf("%s: a fault model detected nothing: %+v", r.Design, r)
		}
		if r.PairDiagRate < 0.70 {
			t.Errorf("%s: probe-free pair resolution %.1f%% below the 70%% bar: %+v",
				r.Design, 100*r.PairDiagRate, r)
		}
	}
	table := FormatMultiFault(rows)
	if table == "" {
		t.Fatal("empty rendering")
	}
	t.Log("\n" + table)
}
