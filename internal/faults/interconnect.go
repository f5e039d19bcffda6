package faults

// The interconnect fault model: defects in the routing fabric rather
// than the logic. Route stuck-ats break the last hop into one LUT pin
// (the driving net stays healthy for every other consumer — unlike a net
// stuck-at, which every sink observes), and bridges short two routing
// wires into a wired-AND/OR. Both have exact lane forms (sim.LanePinStuck*,
// sim.LaneBridge*) and exact serial netlist forms (cofactored function,
// inserted bridge cell), so the catalog differential pins them like any
// other model. Repairing them means fixing wiring — rerouting a pin
// under the layout transaction — not rewriting truth tables; see
// internal/repair.

import (
	"math/rand"

	"fpgadbg/internal/netlist"
)

// InterconnectConfig shapes InterconnectUniverse.
type InterconnectConfig struct {
	// MaxBridges caps the sampled bridge list (default 64). Route
	// stuck-ats are enumerated exhaustively — they are linear in design
	// size.
	MaxBridges int
	Seed       int64
}

func (c InterconnectConfig) withDefaults() InterconnectConfig {
	if c.MaxBridges < 1 {
		c.MaxBridges = 64
	}
	return c
}

// netLevels computes per-net topological levels exactly as the execution
// core does: source nets (PIs, DFF outputs, undriven) are level 0, a
// LUT-driven net is one past its deepest fanin. Bridge aggressors must
// sit strictly below their victims in this order.
func netLevels(nl *netlist.Netlist) ([]int32, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	lv := make([]int32, len(nl.Nets))
	for _, id := range order {
		c := &nl.Cells[id]
		if c.Kind != netlist.KindLUT {
			continue
		}
		l := int32(0)
		for _, f := range c.Fanin {
			if lv[f] >= l {
				l = lv[f] + 1
			}
		}
		if len(c.Fanin) == 0 {
			l = 1
		}
		lv[c.Out] = l
	}
	return lv, nil
}

// InterconnectUniverse enumerates the interconnect fault list of a
// design in a deterministic order: route stuck-0 and stuck-1 on every
// fanin pin of every live ≤4-input LUT, then a seeded sample of bridges.
// Bridge victims are LUT-driven nets (so the serial bridge-cell form
// always exists) and aggressors are drawn from nets at strictly lower
// level — the ordering the lane engine requires for single-pass
// wired-AND/OR semantics; the bridge operator alternates AND/OR.
func InterconnectUniverse(nl *netlist.Netlist, cfg InterconnectConfig) ([]Fault, error) {
	cfg = cfg.withDefaults()
	var out []Fault
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Dead || c.Kind != netlist.KindLUT || len(c.Fanin) == 0 || len(c.Fanin) > maxFlipInputs {
			continue
		}
		for pin := range c.Fanin {
			out = append(out,
				Fault{Kind: RouteStuck0, Cell: netlist.CellID(ci), Pin: int32(pin)},
				Fault{Kind: RouteStuck1, Cell: netlist.CellID(ci), Pin: int32(pin)})
		}
	}

	lv, err := netLevels(nl)
	if err != nil {
		return nil, err
	}
	var victims, lower []netlist.NetID
	for ni := range nl.Nets {
		id := netlist.NetID(ni)
		d := nl.Nets[ni].Driver
		if d != netlist.NilCell && nl.Cells[d].Kind == netlist.KindLUT {
			victims = append(victims, id)
		}
		lower = append(lower, id)
	}
	if len(victims) == 0 || len(lower) < 2 {
		return out, nil
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	seen := make(map[[2]netlist.NetID]bool, cfg.MaxBridges)
	added := 0
	for tries := 0; added < cfg.MaxBridges && tries < cfg.MaxBridges*32; tries++ {
		v := victims[r.Intn(len(victims))]
		a := lower[r.Intn(len(lower))]
		if a == v || lv[a] >= lv[v] || seen[[2]netlist.NetID{v, a}] {
			continue
		}
		seen[[2]netlist.NetID{v, a}] = true
		k := BridgeAND
		if added%2 == 1 {
			k = BridgeOR
		}
		out = append(out, Fault{Kind: k, Net: v, Net2: a})
		added++
	}
	return out, nil
}
