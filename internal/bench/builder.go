package bench

import (
	"fmt"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
)

// bus is an ordered group of nets, LSB first.
type bus []netlist.NetID

// bld wraps a netlist with structural-RTL helpers. Cell names carry
// hierarchical paths ("mips/alu/add7") that package eco's back-annotation
// tree parses.
type bld struct {
	nl  *netlist.Netlist
	seq int
}

func newBld(name string) *bld {
	return &bld{nl: netlist.New(name)}
}

func (b *bld) fresh(prefix string) netlist.NetID {
	b.seq++
	return b.nl.AddNet(fmt.Sprintf("%s.%d", prefix, b.seq))
}

// lut creates a LUT cell computing f over the inputs and returns its
// output net.
func (b *bld) lut(name string, f logic.Cover, in ...netlist.NetID) netlist.NetID {
	out := b.fresh(name)
	b.nl.MustAddLUT(name, f, in, out)
	return out
}

func (b *bld) pi(name string) netlist.NetID { return b.nl.AddPI(name) }

func (b *bld) piBus(name string, w int) bus {
	out := make(bus, w)
	for i := range out {
		out[i] = b.pi(fmt.Sprintf("%s%d", name, i))
	}
	return out
}

func (b *bld) po(net netlist.NetID) { b.nl.MarkPO(net) }

func (b *bld) poBus(v bus) {
	for _, n := range v {
		b.po(n)
	}
}

func (b *bld) not(name string, a netlist.NetID) netlist.NetID {
	return b.lut(name, logic.NotN(), a)
}

func (b *bld) and2(name string, x, y netlist.NetID) netlist.NetID {
	return b.lut(name, logic.AndN(2), x, y)
}

func (b *bld) or2(name string, x, y netlist.NetID) netlist.NetID {
	return b.lut(name, logic.OrN(2), x, y)
}

func (b *bld) xor2(name string, x, y netlist.NetID) netlist.NetID {
	return b.lut(name, logic.XorN(2), x, y)
}

// mux returns sel ? hi : lo.
func (b *bld) mux(name string, sel, lo, hi netlist.NetID) netlist.NetID {
	return b.lut(name, logic.Mux2(), sel, lo, hi)
}

// constNet returns a constant-v net.
func (b *bld) constNet(name string, v bool) netlist.NetID {
	out := b.fresh(name)
	if _, err := b.nl.AddConst(name, v, out); err != nil {
		panic(err)
	}
	return out
}

// tree reduces nets with a binary associative gate.
func (b *bld) tree(name string, gate logic.Cover, nets []netlist.NetID) netlist.NetID {
	if len(nets) == 0 {
		panic("bench: empty tree")
	}
	for len(nets) > 1 {
		var next []netlist.NetID
		for i := 0; i+1 < len(nets); i += 2 {
			next = append(next, b.lut(name, gate, nets[i], nets[i+1]))
		}
		if len(nets)%2 == 1 {
			next = append(next, nets[len(nets)-1])
		}
		nets = next
	}
	return nets[0]
}

func (b *bld) orTree(name string, nets []netlist.NetID) netlist.NetID {
	return b.tree(name, logic.OrN(2), nets)
}

func (b *bld) andTree(name string, nets []netlist.NetID) netlist.NetID {
	return b.tree(name, logic.AndN(2), nets)
}

func (b *bld) xorTree(name string, nets []netlist.NetID) netlist.NetID {
	return b.tree(name, logic.XorN(2), nets)
}

// adder builds a ripple-carry adder; returns sum and carry-out.
func (b *bld) adder(name string, x, y bus, cin netlist.NetID) (bus, netlist.NetID) {
	if len(x) != len(y) {
		panic("bench: adder width mismatch")
	}
	sum := make(bus, len(x))
	c := cin
	for i := range x {
		sum[i] = b.lut(fmt.Sprintf("%s/s%d", name, i), logic.XorN(3), x[i], y[i], c)
		c = b.lut(fmt.Sprintf("%s/c%d", name, i), logic.Maj3(), x[i], y[i], c)
	}
	return sum, c
}

// muxBus selects between two buses bit-wise.
func (b *bld) muxBus(name string, sel netlist.NetID, lo, hi bus) bus {
	out := make(bus, len(lo))
	for i := range lo {
		out[i] = b.mux(fmt.Sprintf("%s/m%d", name, i), sel, lo[i], hi[i])
	}
	return out
}

// muxN selects one of the input buses with a binary select bus (LSB
// first); inputs length must be a power of two ≥ len.
func (b *bld) muxN(name string, sel bus, inputs []bus) bus {
	cur := inputs
	for level, s := range sel {
		var next []bus
		for i := 0; i+1 < len(cur); i += 2 {
			next = append(next, b.muxBus(fmt.Sprintf("%s/l%d_%d", name, level, i/2), s, cur[i], cur[i+1]))
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return cur[0]
}

// eqConst returns a net that is true when v equals k.
func (b *bld) eqConst(name string, v bus, k uint64) netlist.NetID {
	cov := logic.EqConst(len(v), k)
	return b.lut(name, cov, v...)
}

// decode returns the one-hot decode of v, n outputs.
func (b *bld) decode(name string, v bus, n int) []netlist.NetID {
	out := make([]netlist.NetID, n)
	for i := 0; i < n; i++ {
		out[i] = b.eqConst(fmt.Sprintf("%s/d%d", name, i), v, uint64(i))
	}
	return out
}

// reg registers a bus (with optional enable) and returns the Q bus.
func (b *bld) reg(name string, d bus, en netlist.NetID) bus {
	q := make(bus, len(d))
	for i := range d {
		qn := b.fresh(fmt.Sprintf("%s/q%d", name, i))
		var din netlist.NetID
		if en == netlist.NilNet {
			din = d[i]
		} else {
			din = b.mux(fmt.Sprintf("%s/en%d", name, i), en, qn, d[i])
		}
		b.nl.MustAddDFF(fmt.Sprintf("%s/ff%d", name, i), din, qn, 0)
		q[i] = qn
	}
	return q
}

// done finalizes and validates the generated netlist.
func (b *bld) done() *netlist.Netlist {
	if err := b.nl.CheckDriven(); err != nil {
		panic(fmt.Sprintf("bench: generator %q produced invalid netlist: %v", b.nl.Name, err))
	}
	return b.nl
}
