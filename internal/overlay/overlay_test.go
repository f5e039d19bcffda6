package overlay

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/synth"
)

// testLayout builds a reserved-track layout of a small benchmark.
func testLayout(t testing.TB) *core.Layout {
	t.Helper()
	info, err := bench.ByName("9sym")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.BuildMapped(mapped, core.Spec{
		Seed: 1, PlaceEffort: 0.25, TileFrac: 0.25, OverlayReserve: DefaultReserve,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBuildCoversEveryLiveOutput(t *testing.T) {
	l := testLayout(t)
	p, err := Build(l, DefaultChannels)
	if err != nil {
		t.Fatal(err)
	}
	if p.Channels != DefaultChannels || len(p.Readout) != DefaultChannels {
		t.Fatalf("got %d channels, %d readout sites", p.Channels, len(p.Readout))
	}
	covered := 0
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if c.Dead || c.Out == netlist.NilNet {
			continue
		}
		name := l.NL.NetName(c.Out)
		if !p.Covers(name) {
			t.Fatalf("live output %q outside overlay reach", name)
		}
		ch, ok := p.Channel(name)
		if !ok || ch < 0 || ch >= p.Channels {
			t.Fatalf("net %q on bad channel %d", name, ch)
		}
		covered++
	}
	if covered == 0 || covered != p.Taps {
		t.Fatalf("covered %d outputs, plan says %d taps", covered, p.Taps)
	}
	if p.TrunkLen == 0 {
		t.Fatal("trunks routed with zero wirelength")
	}
	// The locked trunk wiring must not break any layout invariant: the
	// capacity check counts the fixed wiring against every channel
	// segment.
	if err := core.VerifyLayout(l); err != nil {
		t.Fatalf("overlay layout invalid: %v", err)
	}
	if len(l.FixedWiring()) == 0 {
		t.Fatal("trunk wiring was not locked into the layout")
	}
}

func TestCloneInheritsTrunkWiring(t *testing.T) {
	l := testLayout(t)
	p, err := Build(l, 0) // 0 selects DefaultChannels
	if err != nil {
		t.Fatal(err)
	}
	cl := l.Clone()
	if got, want := len(cl.FixedWiring()), len(l.FixedWiring()); got != want {
		t.Fatalf("clone has %d fixed edges, want %d", got, want)
	}
	if err := core.VerifyLayout(cl); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// The shared plan binds selectors to any clone.
	sel := p.NewSelector(cl)
	if sel.plan != p {
		t.Fatal("selector lost its plan")
	}
}

func TestPartitionTimeMultiplexesConflicts(t *testing.T) {
	l := testLayout(t)
	p, err := Build(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	sel := p.NewSelector(l)
	// Three nets on the same channel must spread over three batches.
	var same []string
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if c.Dead || c.Out == netlist.NilNet {
			continue
		}
		name := l.NL.NetName(c.Out)
		if ch, ok := p.Channel(name); ok && ch == 0 {
			same = append(same, name)
			if len(same) == 3 {
				break
			}
		}
	}
	if len(same) < 3 {
		t.Skip("design too small for three same-channel taps")
	}
	batches, unreachable := sel.Partition(same)
	if len(unreachable) != 0 {
		t.Fatalf("covered nets reported unreachable: %v", unreachable)
	}
	if len(batches) != 3 {
		t.Fatalf("3 same-channel nets in %d batches, want 3", len(batches))
	}
	for _, b := range batches {
		if err := sel.Select(b); err != nil {
			t.Fatalf("conflict-free batch rejected: %v", err)
		}
	}
	// Selecting two of them at once must be rejected with the
	// time-multiplex hint.
	if err := sel.Select(same[:2]); err == nil {
		t.Fatal("same-channel conflict accepted")
	}
	// A net that does not exist is outside reach.
	if _, unr := sel.Partition([]string{"no-such-net"}); len(unr) != 1 {
		t.Fatal("unknown net not reported unreachable")
	}
	if err := sel.Select([]string{"no-such-net"}); err == nil {
		t.Fatal("unreachable net accepted")
	}
}

func TestRollbackRestoresSelection(t *testing.T) {
	l := testLayout(t)
	p, err := Build(l, DefaultChannels)
	if err != nil {
		t.Fatal(err)
	}
	sel := p.NewSelector(l)
	batches, _ := sel.Partition(pickOnePerChannel(l, p))
	if len(batches) == 0 {
		t.Fatal("no selectable taps")
	}
	if err := sel.Select(batches[0]); err != nil {
		t.Fatal(err)
	}
	before := sel.Selected()
	digest := l.StateDigest()

	cp := l.Checkpoint()
	// A different batch inside the transaction...
	second, _ := sel.Partition(pickOnePerChannel2(l, p))
	if len(second) > 0 {
		if err := sel.Select(second[0]); err != nil {
			t.Fatal(err)
		}
	}
	// ...is undone by rollback, selection and layout state alike.
	if err := l.Rollback(cp); err != nil {
		t.Fatal(err)
	}
	after := sel.Selected()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("channel %d: rollback left %q, want %q", i, after[i], before[i])
		}
	}
	if l.StateDigest() != digest {
		t.Fatal("rollback did not restore the layout digest")
	}
}

// pickOnePerChannel returns the first covered net of each channel.
func pickOnePerChannel(l *core.Layout, p *Plan) []string {
	out := make([]string, 0, p.Channels)
	seen := make(map[int]bool)
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if c.Dead || c.Out == netlist.NilNet {
			continue
		}
		name := l.NL.NetName(c.Out)
		if ch, ok := p.Channel(name); ok && !seen[ch] {
			seen[ch] = true
			out = append(out, name)
		}
	}
	return out
}

// pickOnePerChannel2 returns the second covered net of each channel.
func pickOnePerChannel2(l *core.Layout, p *Plan) []string {
	out := make([]string, 0, p.Channels)
	seen := make(map[int]int)
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if c.Dead || c.Out == netlist.NilNet {
			continue
		}
		name := l.NL.NetName(c.Out)
		if ch, ok := p.Channel(name); ok {
			seen[ch]++
			if seen[ch] == 2 {
				out = append(out, name)
			}
		}
	}
	return out
}
