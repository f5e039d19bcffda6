package netlist

import (
	"fmt"
	"testing"

	"fpgadbg/internal/logic"
)

// TestBinaryRoundTripExact encodes a netlist with a DFF, constants and a
// tombstoned cell and net: the decoded copy keeps every ID, name, cover
// and tombstone, and its name indexes work.
func TestBinaryRoundTripExact(t *testing.T) {
	n, sum, _ := buildFullAdder(t)
	q := n.AddNet("q")
	if _, err := n.AddDFF("ff", sum, q, 1); err != nil {
		t.Fatal(err)
	}
	one, zero := n.AddNet("one"), n.AddNet("zero")
	n.MustAddLUT("c1", logic.Const(0, true), nil, one)
	n.MustAddLUT("c0", logic.Const(0, false), nil, zero)
	n.MarkPO(q)
	dead, _ := n.CellByName("c0")
	if err := n.RemoveCell(dead); err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveNet(zero); err != nil {
		t.Fatal(err)
	}

	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Netlist
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != n.Fingerprint() {
		t.Fatalf("fingerprint %s, want %s", back.Fingerprint(), n.Fingerprint())
	}
	for _, f := range []struct {
		what      string
		got, want any
	}{
		{"name", back.Name, n.Name},
		{"cells", back.Cells, n.Cells},
		{"nets", back.Nets, n.Nets},
		{"PIs", back.PIs, n.PIs},
		{"POs", back.POs, n.POs},
	} {
		if g, w := fmt.Sprintf("%+v", f.got), fmt.Sprintf("%+v", f.want); g != w {
			t.Fatalf("%s differ:\n  got  %s\n  want %s", f.what, g, w)
		}
	}
	if id, ok := back.CellByName("ff"); !ok || back.Cells[id].Kind != KindDFF {
		t.Fatalf("CellByName(ff) = %d, %v", id, ok)
	}
	if _, ok := back.NetByName("zero"); ok {
		t.Fatal("tombstoned net still indexed")
	}
	if err := back.UnmarshalBinary(data[:len(data)/2]); err == nil {
		t.Fatal("decoded a truncated encoding")
	}
}
