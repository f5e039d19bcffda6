package netlist

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// wire is the exported state of a Netlist; the name indexes are rebuilt
// from it on decode.
type wire struct {
	Name  string
	Cells []Cell
	Nets  []Net
	PIs   []NetID
	POs   []NetID
}

// MarshalBinary encodes the netlist exactly: every cell and net keeps its
// ID and name, and every cell its tombstone, so a decoded copy simulates,
// places and digests like the original. The journal is not encoded.
func (n *Netlist) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire{n.Name, n.Cells, n.Nets, n.PIs, n.POs}); err != nil {
		return nil, fmt.Errorf("netlist: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary replaces n with a netlist encoded by MarshalBinary and
// checks its structural invariants.
func (n *Netlist) UnmarshalBinary(data []byte) error {
	var w wire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("netlist: decode: %w", err)
	}
	*n = Netlist{Name: w.Name, Cells: w.Cells, Nets: w.Nets, PIs: w.PIs, POs: w.POs,
		netByName: make(map[string]NetID, len(w.Nets)), cellByName: make(map[string]CellID, len(w.Cells))}
	for i := range n.Nets {
		n.netByName[n.Nets[i].Name] = NetID(i)
	}
	for i := range n.Cells {
		if !n.Cells[i].Dead {
			n.cellByName[n.Cells[i].Name] = CellID(i)
		}
	}
	return n.Check()
}
