package netlist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"fpgadbg/internal/logic"
)

// TestBinaryRoundTripExact encodes a netlist with a DFF, constants and a
// tombstoned cell: the decoded copy keeps every ID, name, cover and
// tombstone, and its name indexes work.
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
	if _, ok := back.CellByName("c0"); ok {
		t.Fatal("tombstoned cell still indexed")
	}
	if id, ok := back.NetByName("zero"); !ok || id != zero {
		t.Fatalf("NetByName(zero) = %d, %v: a removed cell's output net stays indexed", id, ok)
	}
	if err := back.UnmarshalBinary(data[:len(data)/2]); err == nil {
		t.Fatal("decoded a truncated encoding")
	}
}

// TestDecodesLegacyNetTombstones: netlists encoded while nets still had
// a tombstone field carry a Dead flag on every net (always false, since
// no product path removed a net). They still decode, pass Check and keep
// their fingerprint, so a durable data dir written then restores its
// spilled netlists.
func TestDecodesLegacyNetTombstones(t *testing.T) {
	type legacyNet struct {
		Name   string
		Driver CellID
		Dead   bool
	}
	type legacyWire struct {
		Name  string
		Cells []Cell
		Nets  []legacyNet
		PIs   []NetID
		POs   []NetID
	}
	n, sum, _ := buildFullAdder(t)
	q := n.AddNet("q")
	if _, err := n.AddDFF("ff", sum, q, 1); err != nil {
		t.Fatal(err)
	}
	n.MarkPO(q)
	maj, _ := n.CellByName("maj3")
	if err := n.RemoveCell(maj); err != nil {
		t.Fatal(err)
	}
	w := legacyWire{Name: n.Name, Cells: n.Cells, PIs: n.PIs, POs: n.POs}
	for _, net := range n.Nets {
		w.Nets = append(w.Nets, legacyNet{Name: net.Name, Driver: net.Driver})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	current, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), current) {
		t.Fatal("legacy encoding equals the current one; the test exercises nothing")
	}

	var back Netlist
	if err := back.UnmarshalBinary(buf.Bytes()); err != nil {
		t.Fatalf("legacy netlist does not decode: %v", err)
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != n.Fingerprint() {
		t.Fatalf("fingerprint %s, want %s", back.Fingerprint(), n.Fingerprint())
	}
	if g, w := fmt.Sprintf("%+v", back.Nets), fmt.Sprintf("%+v", n.Nets); g != w {
		t.Fatalf("nets differ:\n  got  %s\n  want %s", g, w)
	}
	if id, ok := back.NetByName("cout"); !ok || back.Nets[id].Driver != NilCell {
		t.Fatalf("NetByName(cout) = %d, %v", id, ok)
	}
}
