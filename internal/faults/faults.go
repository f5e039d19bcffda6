package faults

import (
	"errors"
	"fmt"
	"math/rand"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
)

// ErrNoSite reports that the netlist has no cell a requested error kind
// could ever apply to (e.g. no multi-input LUT for an input swap).
var ErrNoSite = errors.New("no injectable site")

// ErrExhausted reports RNG exhaustion: eligible cells exist, but the
// seeded random search gave up before finding an applicable, non-trivial
// mutation. Retrying with a different seed may succeed.
var ErrExhausted = errors.New("injection attempts exhausted")

// Kind enumerates the design-error models.
type Kind int

const (
	// LUTBitFlip flips one truth-table entry of a LUT (a wrong minterm).
	LUTBitFlip Kind = iota
	// InputSwap exchanges two fanin connections of one LUT.
	InputSwap
	// Polarity replaces a LUT's function with its complement.
	Polarity
	// WrongNet rewires one LUT fanin to a different (topologically safe)
	// net.
	WrongNet
	// numInjectKinds bounds the kinds Inject can apply; the enumeration
	// kinds below are deliberately outside InjectRandom's rotation so
	// existing fault seeds keep selecting the same errors.
	numInjectKinds
	// StuckAt0 pins a net to 0 — an SEU/bridging model used by Universe
	// and the fault-parallel scanner, simulated as a lane perturbation
	// (sim.SetLaneFault) rather than injected as a netlist mutation.
	StuckAt0
	// StuckAt1 pins a net to 1.
	StuckAt1
	// BridgeAND shorts a victim net (Net) to an aggressor net (Net2): the
	// victim reads the wired-AND of the two signals, the aggressor is
	// unperturbed. An interconnect fault — the serial form inserts an
	// explicit bridge cell and rewires the victim's consumers.
	BridgeAND
	// BridgeOR is the wired-OR bridge.
	BridgeOR
	// RouteStuck0 breaks the route into fanin pin Pin of LUT Cell: the pin
	// reads a constant 0 while the driving net stays healthy for every
	// other consumer. The serial form cofactors the cell function.
	RouteStuck0
	// RouteStuck1 shorts the pin to a constant 1.
	RouteStuck1
)

func (k Kind) String() string {
	switch k {
	case LUTBitFlip:
		return "lut-bit-flip"
	case InputSwap:
		return "input-swap"
	case Polarity:
		return "polarity"
	case WrongNet:
		return "wrong-net"
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	case BridgeAND:
		return "bridge-and"
	case BridgeOR:
		return "bridge-or"
	case RouteStuck0:
		return "route-stuck-0"
	case RouteStuck1:
		return "route-stuck-1"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Injection records one injected design error.
type Injection struct {
	Kind Kind
	// Cell is the mutated cell.
	Cell netlist.CellID
	// CellName survives netlist compaction.
	CellName string
	Detail   string
}

func (in Injection) String() string {
	return fmt.Sprintf("%s at %s (%s)", in.Kind, in.CellName, in.Detail)
}

// Inject applies one error of the given kind to a random eligible cell.
// The netlist is mutated in place; inject into a Clone to keep a golden
// copy.
func Inject(nl *netlist.Netlist, kind Kind, seed int64) (*Injection, error) {
	if kind < 0 || kind >= numInjectKinds {
		return nil, fmt.Errorf("faults: kind %s is not injectable", kind)
	}
	r := rand.New(rand.NewSource(seed))
	var luts []netlist.CellID
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if !c.Dead && c.Kind == netlist.KindLUT && len(c.Fanin) >= 1 {
			luts = append(luts, netlist.CellID(ci))
		}
	}
	if len(luts) == 0 {
		return nil, fmt.Errorf("faults: %w: no LUTs to mutate", ErrNoSite)
	}
	if kind == InputSwap {
		ok := false
		for _, id := range luts {
			if len(nl.Cells[id].Fanin) >= 2 {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("faults: %w: no multi-input LUT for %s", ErrNoSite, kind)
		}
	}
	// Try several candidates: some mutations are inapplicable (e.g. a
	// 1-input LUT cannot swap inputs) or would be no-ops.
	for attempt := 0; attempt < 64; attempt++ {
		id := luts[r.Intn(len(luts))]
		c := &nl.Cells[id]
		switch kind {
		case LUTBitFlip:
			if c.Func.N > logic.TTMaxVars {
				continue
			}
			tt, err := c.Func.TT()
			if err != nil {
				continue
			}
			bit := uint64(r.Intn(1 << c.Func.N))
			tt.SetBit(bit, !tt.Bit(bit))
			if err := nl.SetFunc(id, tt.ToCover()); err != nil {
				return nil, err
			}
			return &Injection{Kind: kind, Cell: id, CellName: c.Name,
				Detail: fmt.Sprintf("minterm %d flipped", bit)}, nil
		case InputSwap:
			if len(c.Fanin) < 2 {
				continue
			}
			i := r.Intn(len(c.Fanin))
			j := r.Intn(len(c.Fanin))
			if i == j || c.Fanin[i] == c.Fanin[j] {
				continue
			}
			// A symmetric function is unaffected by a swap; require the
			// function to distinguish the two positions.
			if c.Func.N <= logic.TTMaxVars {
				tt, err := c.Func.TT()
				if err == nil && swapInvariant(tt, i, j) {
					continue
				}
			}
			if err := nl.SwapFanin(id, i, j); err != nil {
				return nil, err
			}
			return &Injection{Kind: kind, Cell: id, CellName: c.Name,
				Detail: fmt.Sprintf("pins %d and %d swapped", i, j)}, nil
		case Polarity:
			nc, err := c.Func.Not()
			if err != nil {
				continue
			}
			if err := nl.SetFunc(id, nc); err != nil {
				return nil, err
			}
			return &Injection{Kind: kind, Cell: id, CellName: c.Name, Detail: "output inverted"}, nil
		case WrongNet:
			pin := r.Intn(len(c.Fanin))
			alt := safeAlternative(nl, id, c.Fanin[pin], r)
			if alt == netlist.NilNet {
				continue
			}
			old := c.Fanin[pin]
			if err := nl.SetFanin(id, pin, alt); err != nil {
				return nil, err
			}
			return &Injection{Kind: kind, Cell: id, CellName: c.Name,
				Detail: fmt.Sprintf("pin %d rewired %s->%s", pin, nl.NetName(old), nl.NetName(alt))}, nil
		default:
			return nil, fmt.Errorf("faults: unknown kind %d", kind)
		}
	}
	return nil, fmt.Errorf("faults: %w: no applicable site for %s after 64 attempts", ErrExhausted, kind)
}

// InjectRandom picks a random error kind and site. The returned error
// distinguishes a design with nothing to mutate (ErrNoSite) from RNG
// exhaustion across every kind (ErrExhausted, retry with another seed).
func InjectRandom(nl *netlist.Netlist, seed int64) (*Injection, error) {
	r := rand.New(rand.NewSource(seed))
	order := r.Perm(int(numInjectKinds))
	exhausted := false
	for _, k := range order {
		inj, err := Inject(nl, Kind(k), seed+int64(k)+1)
		if err == nil {
			return inj, nil
		}
		if !errors.Is(err, ErrNoSite) {
			exhausted = true
		}
	}
	if exhausted {
		return nil, fmt.Errorf("faults: %w: no error kind applied for seed %d", ErrExhausted, seed)
	}
	return nil, fmt.Errorf("faults: %w: design offers no injectable error", ErrNoSite)
}

// swapInvariant reports whether the function is symmetric in variables i
// and j.
func swapInvariant(tt logic.TT, i, j int) bool {
	for m := uint64(0); m < uint64(1)<<tt.N; m++ {
		bi := m & (1 << i)
		bj := m & (1 << j)
		swapped := m
		if (bi != 0) != (bj != 0) {
			swapped = m ^ (1 << i) ^ (1 << j)
		}
		if tt.Bit(m) != tt.Bit(swapped) {
			return false
		}
	}
	return true
}

// safeAlternative returns a net that can replace the given fanin without
// creating a combinational cycle: the drivers' levels must stay below the
// mutated cell's level.
func safeAlternative(nl *netlist.Netlist, cell netlist.CellID, current netlist.NetID, r *rand.Rand) netlist.NetID {
	levels, _, err := nl.Levels()
	if err != nil {
		return netlist.NilNet
	}
	myLevel := levels[cell]
	var cands []netlist.NetID
	for ni := range nl.Nets {
		net := netlist.NetID(ni)
		if net == current {
			continue
		}
		d := nl.Nets[ni].Driver
		if d == netlist.NilCell {
			if nl.IsPI(net) {
				cands = append(cands, net)
			}
			continue
		}
		if nl.Cells[d].Kind == netlist.KindDFF || levels[d] < myLevel {
			cands = append(cands, net)
		}
	}
	if len(cands) == 0 {
		return netlist.NilNet
	}
	return cands[r.Intn(len(cands))]
}
