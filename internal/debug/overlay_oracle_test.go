package debug

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/instr"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/testgen"
)

// TestOverlayStreamsMatchCADPath is the CAD-versus-overlay differential
// oracle on catalog designs. Observing nets through the pre-reserved
// overlay changes nothing in the design, so the probed streams must
// equal, word for word, the streams observed after the CAD path inserts
// a MISR on the same nets. It also pins the overlay's other bars: the
// plan covers taps over a routed trunk, a tap switch round is at least
// 20× faster (median) than the MISR insertion round it replaces, every
// round rolls back to the pristine digest, and a causal overlay
// localization needs no CAD fallback round.
func TestOverlayStreamsMatchCADPath(t *testing.T) {
	designs := []string{"9sym", "c880", "c499", "styr"}
	if testing.Short() {
		designs = designs[:1]
	}
	for _, name := range designs {
		t.Run(name, func(t *testing.T) {
			info, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := synth.TechMap(info.Build())
			if err != nil {
				t.Fatal(err)
			}
			impl := golden.Clone()
			if _, err := faults.InjectRandom(impl, 42); err != nil {
				t.Fatal(err)
			}
			lay, err := core.BuildMapped(impl, core.Spec{
				Overhead: 0.20, TileFrac: 0.10, Seed: 1, PlaceEffort: 0.5,
				OverlayReserve: overlay.DefaultReserve,
			})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := overlay.Build(lay, overlay.DefaultChannels)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyLayout(lay); err != nil {
				t.Fatal(err)
			}
			if plan.Taps == 0 || plan.TrunkLen == 0 {
				t.Fatalf("empty overlay plan: %d taps, trunk length %d", plan.Taps, plan.TrunkLen)
			}

			// One covered net per channel per round, rotating so every
			// round moves the muxes.
			chanNames := make([][]string, plan.Channels)
			for ci := range lay.NL.Cells {
				c := &lay.NL.Cells[ci]
				if c.Dead || c.Out == netlist.NilNet {
					continue
				}
				net := lay.NL.NetName(c.Out)
				if ch, ok := plan.Channel(net); ok {
					chanNames[ch] = append(chanNames[ch], net)
				}
			}
			batch := func(r int) ([]string, []netlist.NetID) {
				var names []string
				var ids []netlist.NetID
				for ch := range chanNames {
					if n := len(chanNames[ch]); n > 0 {
						net := chanNames[ch][r%n]
						id, ok := lay.NL.NetByName(net)
						if !ok {
							t.Fatalf("net %q vanished", net)
						}
						names, ids = append(names, net), append(ids, id)
					}
				}
				return names, ids
			}

			pristine := lay.StateDigest()
			sel := plan.NewSelector(lay)
			var switchT, cadT []time.Duration
			for r := 0; r < 8; r++ {
				names, ids := batch(r)
				start := time.Now()
				cp := lay.Checkpoint()
				if err := sel.Select(names); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if err := lay.Rollback(cp); err != nil {
					t.Fatal(err)
				}
				switchT = append(switchT, time.Since(start))

				start = time.Now()
				cp = lay.Checkpoint()
				misr, err := instr.InsertMISR(lay.NL, fmt.Sprintf("ovb%d", r), ids)
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if _, err := lay.ApplyDelta(core.Delta{Added: misr.Cells}); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if err := lay.Rollback(cp); err != nil {
					t.Fatal(err)
				}
				cadT = append(cadT, time.Since(start))
				if lay.StateDigest() != pristine {
					t.Fatalf("round %d: rollback did not restore the layout", r)
				}
			}
			sw, cad := medianDuration(switchT), medianDuration(cadT)
			t.Logf("median tap switch %v, MISR round %v", sw, cad)
			if cad < 20*sw {
				t.Errorf("median tap switch %v is not 20x under the MISR round %v", sw, cad)
			}

			names, ids := batch(0)
			assertOverlayStreamsMatchMISR(t, lay, names, ids)
			if lay.StateDigest() != pristine {
				t.Fatal("stream oracle leaked into the layout")
			}

			cp := lay.Checkpoint()
			s, err := NewSession(golden, lay, 1)
			if err != nil {
				t.Fatal(err)
			}
			s.Overlay = plan.NewSelector(lay)
			s.Causal = true
			det, err := s.Detect(4, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !det.Failed {
				t.Log("injected error not excited: the fallback bar is not exercised")
			} else {
				if _, err := s.Localize(det, 6, 4); err != nil {
					t.Fatal(err)
				}
				if s.OverlayFallbacks != 0 {
					t.Errorf("%d probe rounds fell back to CAD", s.OverlayFallbacks)
				}
			}
			if err := lay.Rollback(cp); err != nil {
				t.Fatal(err)
			}
			if lay.StateDigest() != pristine {
				t.Fatal("overlay campaign leaked into the layout")
			}
		})
	}
}

// assertOverlayStreamsMatchMISR replays one stimulus with the target nets
// probed, inserts a MISR on the same nets (the CAD path's observation
// logic), replays again, and requires identical probe streams.
func assertOverlayStreamsMatchMISR(t *testing.T, lay *core.Layout, names []string, ids []netlist.NetID) {
	t.Helper()
	piNames := lay.NL.SortedPINames()
	stim := testgen.Repeat(testgen.RandomBlocks(len(piNames), 2, 1), 16)
	run := func() *sim.Trace {
		m, err := sim.Compile(lay.NL)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.BindNames(piNames); err != nil {
			t.Fatal(err)
		}
		if err := m.Probe(ids...); err != nil {
			t.Fatal(err)
		}
		return m.RunTrace(stim)
	}
	before := run()
	cp := lay.Checkpoint()
	misr, err := instr.InsertMISR(lay.NL, "ovdiff", ids)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lay.ApplyDelta(core.Delta{Added: misr.Cells}); err != nil {
		t.Fatal(err)
	}
	after := run()
	if err := lay.Rollback(cp); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < len(stim); c++ {
		for k := range ids {
			if before.ProbeVal(c, k) != after.ProbeVal(c, k) {
				t.Fatalf("overlay stream diverged from the MISR-path stream at cycle %d, tap %s", c, names[k])
			}
		}
	}
}

// medianDuration returns the middle of ds (upper middle for even counts).
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
