package netlist

import (
	"fmt"

	"fpgadbg/internal/logic"
)

// CellID identifies a cell within one Netlist.
type CellID int32

// NetID identifies a net within one Netlist.
type NetID int32

// NilCell and NilNet are sentinel "no such object" values.
const (
	NilCell CellID = -1
	NilNet  NetID  = -1
)

// CellKind distinguishes the two primitive cell types.
type CellKind uint8

const (
	// KindLUT is a combinational lookup-table cell of arbitrary width
	// before technology mapping and width ≤ 4 after.
	KindLUT CellKind = iota
	// KindDFF is a D flip-flop clocked by the implicit global clock.
	KindDFF
)

func (k CellKind) String() string {
	switch k {
	case KindLUT:
		return "LUT"
	case KindDFF:
		return "DFF"
	default:
		return fmt.Sprintf("CellKind(%d)", uint8(k))
	}
}

// Cell is a LUT or DFF instance.
type Cell struct {
	Name  string
	Kind  CellKind
	Fanin []NetID
	Out   NetID
	// Func is the LUT function over len(Fanin) variables (variable i =
	// pin i). Unused for DFFs.
	Func logic.Cover
	// Init is the DFF power-on value (0 or 1). Unused for LUTs.
	Init uint8
	// Dead marks a tombstoned cell.
	Dead bool
}

// Net is a single-driver signal.
type Net struct {
	Name   string
	Driver CellID // NilCell when undriven (primary input or dangling)
	Dead   bool
}

// Sink is one fanin connection of a cell.
type Sink struct {
	Cell CellID
	Pin  int
}

// Netlist is a flat LUT/DFF network.
type Netlist struct {
	Name  string
	Cells []Cell
	Nets  []Net
	PIs   []NetID
	POs   []NetID

	netByName  map[string]NetID
	cellByName map[string]CellID

	// journal is the undo log recorded while journaling is on; see
	// journal.go. Clones start with an empty, disabled journal.
	journal    []journalOp
	journaling bool
	// version counts mutations; see Version.
	version uint64
}

// New returns an empty netlist.
func New(name string) *Netlist {
	return &Netlist{
		Name:       name,
		netByName:  make(map[string]NetID),
		cellByName: make(map[string]CellID),
	}
}

// NumLiveCells counts non-tombstoned cells.
func (n *Netlist) NumLiveCells() int {
	c := 0
	for i := range n.Cells {
		if !n.Cells[i].Dead {
			c++
		}
	}
	return c
}

// NumLiveNets counts non-tombstoned nets.
func (n *Netlist) NumLiveNets() int {
	c := 0
	for i := range n.Nets {
		if !n.Nets[i].Dead {
			c++
		}
	}
	return c
}

// uniqueNetName returns name, disambiguated if already taken.
func (n *Netlist) uniqueNetName(name string) string {
	if name == "" {
		name = fmt.Sprintf("n%d", len(n.Nets))
	}
	if _, taken := n.netByName[name]; !taken {
		return name
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s$%d", name, i)
		if _, taken := n.netByName[cand]; !taken {
			return cand
		}
	}
}

func (n *Netlist) uniqueCellName(name string) string {
	if name == "" {
		name = fmt.Sprintf("c%d", len(n.Cells))
	}
	if _, taken := n.cellByName[name]; !taken {
		return name
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s$%d", name, i)
		if _, taken := n.cellByName[cand]; !taken {
			return cand
		}
	}
}

// AddNet creates a new undriven net. An empty name is auto-generated;
// duplicate names are disambiguated with a $k suffix.
func (n *Netlist) AddNet(name string) NetID {
	name = n.uniqueNetName(name)
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, Net{Name: name, Driver: NilCell})
	n.netByName[name] = id
	n.record(journalOp{kind: opNetAdded, net: id, name: name})
	return id
}

// AddPI creates a new net and registers it as a primary input.
func (n *Netlist) AddPI(name string) NetID {
	id := n.AddNet(name)
	n.PIs = append(n.PIs, id)
	n.record(journalOp{kind: opPIAdded, net: id})
	return id
}

// MarkPO registers an existing net as a primary output. Marking the same
// net twice is an error in Check, so callers should mark once.
func (n *Netlist) MarkPO(id NetID) {
	n.POs = append(n.POs, id)
	n.record(journalOp{kind: opPOAdded, net: id})
}

// addCell validates and appends a cell.
func (n *Netlist) addCell(c Cell) (CellID, error) {
	for pin, f := range c.Fanin {
		if !n.validNet(f) {
			return NilCell, fmt.Errorf("netlist: cell %q pin %d: invalid net %d", c.Name, pin, f)
		}
	}
	if !n.validNet(c.Out) {
		return NilCell, fmt.Errorf("netlist: cell %q: invalid output net %d", c.Name, c.Out)
	}
	if d := n.Nets[c.Out].Driver; d != NilCell {
		return NilCell, fmt.Errorf("netlist: net %q already driven by %q", n.Nets[c.Out].Name, n.Cells[d].Name)
	}
	c.Name = n.uniqueCellName(c.Name)
	id := CellID(len(n.Cells))
	n.Cells = append(n.Cells, c)
	n.cellByName[c.Name] = id
	n.Nets[c.Out].Driver = id
	n.record(journalOp{kind: opCellAdded, cell: id, name: c.Name})
	return id, nil
}

// AddLUT creates a LUT cell computing f over the fanin nets and driving
// out. f.N must equal len(fanin).
func (n *Netlist) AddLUT(name string, f logic.Cover, fanin []NetID, out NetID) (CellID, error) {
	if f.N != len(fanin) {
		return NilCell, fmt.Errorf("netlist: LUT %q: cover width %d != fanin count %d", name, f.N, len(fanin))
	}
	return n.addCell(Cell{
		Name:  name,
		Kind:  KindLUT,
		Fanin: append([]NetID(nil), fanin...),
		Out:   out,
		Func:  f.Clone(),
	})
}

// MustAddLUT is AddLUT that panics on error; for generators whose inputs
// are statically correct.
func (n *Netlist) MustAddLUT(name string, f logic.Cover, fanin []NetID, out NetID) CellID {
	id, err := n.AddLUT(name, f, fanin, out)
	if err != nil {
		panic(err)
	}
	return id
}

// AddDFF creates a flip-flop sampling d and driving q, with power-on value
// init (0 or 1).
func (n *Netlist) AddDFF(name string, d, q NetID, init uint8) (CellID, error) {
	if init > 1 {
		return NilCell, fmt.Errorf("netlist: DFF %q: init %d not 0/1", name, init)
	}
	return n.addCell(Cell{
		Name:  name,
		Kind:  KindDFF,
		Fanin: []NetID{d},
		Out:   q,
		Init:  init,
	})
}

// MustAddDFF is AddDFF that panics on error.
func (n *Netlist) MustAddDFF(name string, d, q NetID, init uint8) CellID {
	id, err := n.AddDFF(name, d, q, init)
	if err != nil {
		panic(err)
	}
	return id
}

// AddConst creates a zero-input LUT driving out with the constant v.
func (n *Netlist) AddConst(name string, v bool, out NetID) (CellID, error) {
	return n.AddLUT(name, logic.Const(0, v), nil, out)
}

// AddBuf creates an identity LUT from in to out.
func (n *Netlist) AddBuf(name string, in, out NetID) (CellID, error) {
	return n.AddLUT(name, logic.BufN(), []NetID{in}, out)
}

// AddInv creates an inverter LUT from in to out.
func (n *Netlist) AddInv(name string, in, out NetID) (CellID, error) {
	return n.AddLUT(name, logic.NotN(), []NetID{in}, out)
}

func (n *Netlist) validNet(id NetID) bool {
	return id >= 0 && int(id) < len(n.Nets) && !n.Nets[id].Dead
}

func (n *Netlist) validCell(id CellID) bool {
	return id >= 0 && int(id) < len(n.Cells) && !n.Cells[id].Dead
}

// SetFanin rewires pin of cell to net.
func (n *Netlist) SetFanin(cell CellID, pin int, net NetID) error {
	if !n.validCell(cell) {
		return fmt.Errorf("netlist: SetFanin: invalid cell %d", cell)
	}
	c := &n.Cells[cell]
	if pin < 0 || pin >= len(c.Fanin) {
		return fmt.Errorf("netlist: SetFanin: cell %q has no pin %d", c.Name, pin)
	}
	if !n.validNet(net) {
		return fmt.Errorf("netlist: SetFanin: invalid net %d", net)
	}
	n.record(journalOp{kind: opFaninSet, cell: cell, pin: pin, net: c.Fanin[pin]})
	c.Fanin[pin] = net
	return nil
}

// RemoveCell tombstones a cell and releases its output net's driver.
func (n *Netlist) RemoveCell(id CellID) error {
	if !n.validCell(id) {
		return fmt.Errorf("netlist: RemoveCell: invalid cell %d", id)
	}
	c := &n.Cells[id]
	hadDriver := n.validNet(c.Out) && n.Nets[c.Out].Driver == id
	if hadDriver {
		n.Nets[c.Out].Driver = NilCell
	}
	delete(n.cellByName, c.Name)
	c.Dead = true
	n.record(journalOp{kind: opCellRemoved, cell: id, name: c.Name, hadDriver: hadDriver})
	return nil
}

// RemoveNet tombstones an undriven net with no remaining sinks. The caller
// is responsible for having rewired sinks first (Check enforces this).
func (n *Netlist) RemoveNet(id NetID) error {
	if !n.validNet(id) {
		return fmt.Errorf("netlist: RemoveNet: invalid net %d", id)
	}
	if n.Nets[id].Driver != NilCell {
		return fmt.Errorf("netlist: RemoveNet: net %q still driven", n.Nets[id].Name)
	}
	for ci := range n.Cells {
		if n.Cells[ci].Dead {
			continue
		}
		for _, f := range n.Cells[ci].Fanin {
			if f == id {
				return fmt.Errorf("netlist: RemoveNet: net %q still has sinks", n.Nets[id].Name)
			}
		}
	}
	delete(n.netByName, n.Nets[id].Name)
	n.Nets[id].Dead = true
	n.record(journalOp{kind: opNetRemoved, net: id, name: n.Nets[id].Name})
	return nil
}

// Fanouts computes, for every net, the list of cell pins it feeds. Primary
// outputs are not included (consult POs).
func (n *Netlist) Fanouts() [][]Sink {
	out := make([][]Sink, len(n.Nets))
	for ci := range n.Cells {
		if n.Cells[ci].Dead {
			continue
		}
		for pin, f := range n.Cells[ci].Fanin {
			out[f] = append(out[f], Sink{Cell: CellID(ci), Pin: pin})
		}
	}
	return out
}

// NetByName resolves a net by name.
func (n *Netlist) NetByName(name string) (NetID, bool) {
	id, ok := n.netByName[name]
	return id, ok
}

// CellByName resolves a cell by name.
func (n *Netlist) CellByName(name string) (CellID, bool) {
	id, ok := n.cellByName[name]
	return id, ok
}

// NetName returns the name of a net (or a placeholder for invalid IDs).
func (n *Netlist) NetName(id NetID) string {
	if id < 0 || int(id) >= len(n.Nets) {
		return fmt.Sprintf("<net%d>", id)
	}
	return n.Nets[id].Name
}

// CellName returns the name of a cell (or a placeholder for invalid IDs).
func (n *Netlist) CellName(id CellID) string {
	if id < 0 || int(id) >= len(n.Cells) {
		return fmt.Sprintf("<cell%d>", id)
	}
	return n.Cells[id].Name
}

// IsPI reports whether the net is a primary input.
func (n *Netlist) IsPI(id NetID) bool {
	for _, pi := range n.PIs {
		if pi == id {
			return true
		}
	}
	return false
}

// IsPO reports whether the net is a primary output.
func (n *Netlist) IsPO(id NetID) bool {
	for _, po := range n.POs {
		if po == id {
			return true
		}
	}
	return false
}
