package faults

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

// catalogUniverses are the fault lists the pre-filter and Detect are
// checked on: the single-fault universe, a windowed-SEU sample of it
// with its permanent arms, and the interconnect universe.
type catalogUniverses struct {
	single, windowed, permanent, interconnect []Fault
}

func universesOf(t *testing.T, nl *netlist.Netlist, cycles, winLen, maxWindowed int) catalogUniverses {
	t.Helper()
	u := Universe(nl)
	iu, err := InterconnectUniverse(nl, InterconnectConfig{MaxBridges: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wu := WindowUniverse(u, cycles, winLen, maxWindowed, 9)
	perm := make([]Fault, len(wu))
	for i, f := range wu {
		f.From, f.To = 0, 0 // the always-armed form of the same site
		perm[i] = f
	}
	return catalogUniverses{single: u, windowed: wu, permanent: perm, interconnect: iu}
}

// unexcited returns the faults of fs the activity pre-filter drops under
// stim on prog.
func unexcited(t *testing.T, prog *sim.Machine, fs []Fault, stim [][]uint64) []Fault {
	t.Helper()
	_, live, err := goldenRun(prog, prog.Fork(), fs, stim)
	if err != nil {
		t.Fatal(err)
	}
	var out []Fault
	next := 0
	for i, f := range fs {
		if next < len(live) && live[next] == i {
			next++
			continue
		}
		out = append(out, f)
	}
	return out
}

// TestPrefilterSoundAcrossCatalog holds the excitation pre-filter to the
// independent serial oracles, which never filter: every fault the
// pre-filter drops — single, windowed and interconnect — must come out
// undetected from SerialScan or SerialWindowScan. The dropped set must
// not depend on the lane width the activity was folded at, and on the
// sequential designs styr, sand and planet1 it must not be empty.
func TestPrefilterSoundAcrossCatalog(t *testing.T) {
	mustDrop := map[string]bool{"styr": true, "sand": true, "planet1": true}
	for _, d := range bench.Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			mapped, err := synth.TechMap(d.Build())
			if err != nil {
				t.Fatal(err)
			}
			cfg := ScanConfig{Patterns: 32, Cycles: 2, Seed: 17}
			cycles := cfg.Patterns * cfg.Cycles
			us := universesOf(t, mapped, cycles, 2*cfg.Cycles, 256)
			stim := cfg.Stimulus(len(mapped.PIs))
			var narrow catalogUniverses
			for _, w := range []int{1, 8} {
				prog, err := sim.CompileWidth(mapped, w)
				if err != nil {
					t.Fatal(err)
				}
				got := catalogUniverses{
					single:       unexcited(t, prog, us.single, stim),
					windowed:     unexcited(t, prog, us.windowed, stim),
					interconnect: unexcited(t, prog, us.interconnect, stim),
				}
				if w == 1 {
					narrow = got
					continue
				}
				for _, pair := range [][2][]Fault{
					{narrow.single, got.single},
					{narrow.windowed, got.windowed},
					{narrow.interconnect, got.interconnect},
				} {
					if len(pair[0]) != len(pair[1]) {
						t.Fatalf("W=1 drops %d faults, W=8 drops %d", len(pair[0]), len(pair[1]))
					}
					for i := range pair[0] {
						if pair[0][i] != pair[1][i] {
							t.Fatalf("W=1 and W=8 drop different faults: %s vs %s",
								pair[0][i].Describe(mapped), pair[1][i].Describe(mapped))
						}
					}
				}
			}
			if mustDrop[d.Name] && len(narrow.single) == 0 {
				t.Fatalf("%s: the pre-filter dropped no single fault", d.Name)
			}
			t.Logf("dropped: %d/%d single, %d/%d windowed, %d/%d interconnect", len(narrow.single), len(us.single),
				len(narrow.windowed), len(us.windowed), len(narrow.interconnect), len(us.interconnect))

			limit := 96
			if testing.Short() {
				limit = 24
			}
			prog, err := sim.Compile(mapped)
			if err != nil {
				t.Fatal(err)
			}
			check := func(model string, res []ScanResult, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					if r.Detected {
						t.Fatalf("%s: pre-filter dropped %s, which the serial oracle detects at cycle %d",
							model, r.Fault.Describe(mapped), r.FirstCycle)
					}
				}
			}
			res, err := SerialScan(prog, strideSample(narrow.single, limit), cfg)
			check("single", res, err)
			res, err = SerialWindowScan(prog, strideSample(narrow.windowed, limit), cfg)
			check("windowed", res, err)
			res, err = SerialScan(prog, strideSample(narrow.interconnect, limit), cfg)
			check("interconnect", res, err)
		})
	}
}

// TestDetectMatchesScanAcrossCatalog holds the two-phase detection-only
// scan to Scan: for every fault of every universe (windowed faults also
// with windows straddling the end of phase 1), at W=1 and W=8, under
// a two-phase stimulus and a one-phase one, Detect must report Scan's
// Detected and FirstCycle, and mark unexcited only faults Scan leaves
// undetected. Across the catalog, faults first detected at the last
// cycle inside the first phase and the first cycle after it must occur,
// so the phase boundary is exercised.
func TestDetectMatchesScanAcrossCatalog(t *testing.T) {
	long := ScanConfig{Patterns: 64, Cycles: 2, Seed: 29}  // 128 cycles: two phases
	short := ScanConfig{Patterns: 32, Cycles: 2, Seed: 29} // 64 cycles: one phase
	if long.Patterns*long.Cycles <= 2*detectWindow || short.Patterns*short.Cycles > 2*detectWindow {
		t.Fatalf("stimuli do not straddle the one-phase bound %d", 2*detectWindow)
	}
	limit := 1024
	if testing.Short() {
		limit = 384
	}
	boundary := map[int]int{}
	for _, d := range bench.Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			mapped, err := synth.TechMap(d.Build())
			if err != nil {
				t.Fatal(err)
			}
			us := universesOf(t, mapped, long.Patterns*long.Cycles, 2*long.Cycles, limit/4)
			// Windows opening just before, at and just after the end of
			// the first phase, which skips only faults armed after it.
			straddling := make([]Fault, len(us.windowed))
			for i, f := range us.windowed {
				f.From = int32(detectWindow - 2 + i%3)
				f.To = f.From + int32(2*long.Cycles)
				straddling[i] = f
			}
			for _, w := range []int{1, 8} {
				prog, err := sim.CompileWidth(mapped, w)
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range []struct {
					model string
					fs    []Fault
				}{
					{"single", strideSample(us.single, limit)},
					{"windowed", us.windowed},
					{"straddling", straddling},
					{"permanent", us.permanent},
					{"interconnect", strideSample(us.interconnect, limit)},
				} {
					for ci, cfg := range []ScanConfig{long, short} {
						want, err := Scan(prog, u.fs, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, st, err := detectStim(prog, u.fs, cfg.Stimulus(len(prog.PIOrder())), nil)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							g, s := got[i], want[i]
							if g.Fault != s.Fault || g.Detected != s.Detected || g.FirstCycle != s.FirstCycle ||
								(g.Unexcited && s.Detected) {
								t.Fatalf("W=%d %s %d cycles, %s: Detect %+v, Scan %+v", w, u.model,
									cfg.Patterns*cfg.Cycles, s.Fault.Describe(mapped), g, s.Syndrome)
							}
							if ci == 0 && (s.FirstCycle == detectWindow-1 || s.FirstCycle == detectWindow) {
								boundary[s.FirstCycle]++
							}
						}
						excited := len(u.fs) - st.unexcited
						if one := (excited + prog.Lanes() - 1) / prog.Lanes(); ci == 1 && st.replayed != one {
							t.Fatalf("W=%d %s: one-phase stimulus replayed %d batches, want %d", w, u.model, st.replayed, one)
						}
					}
				}
			}
		})
	}
	if boundary[detectWindow-1] == 0 || boundary[detectWindow] == 0 {
		t.Fatalf("no fault first detected at cycle %d or %d: %v", detectWindow-1, detectWindow, boundary)
	}
}
