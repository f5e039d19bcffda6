package testgen

import (
	"testing"
)

func TestRandomDeterministic(t *testing.T) {
	pis := []string{"a", "b", "c"}
	p1 := Random(pis, 4, 9)
	p2 := Random(pis, 4, 9)
	if len(p1) != 4 {
		t.Fatalf("got %d words", len(p1))
	}
	for i := range p1 {
		for _, k := range pis {
			if p1[i][k] != p2[i][k] {
				t.Fatal("same seed differs")
			}
		}
	}
	p3 := Random(pis, 4, 10)
	same := true
	for i := range p1 {
		for _, k := range pis {
			if p1[i][k] != p3[i][k] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestExhaustiveCoversAll(t *testing.T) {
	rows, err := ExhaustiveBlocks(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("8 patterns should fit one word, got %d", len(rows))
	}
	seen := make(map[uint64]bool)
	for p := uint64(0); p < 8; p++ {
		var v uint64
		for i, w := range rows[0] {
			if w&(1<<p) != 0 {
				v |= 1 << i
			}
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d distinct assignments among first 8 patterns", len(seen))
	}
	// Width guard.
	if _, err := ExhaustiveBlocks(21); err == nil {
		t.Fatal("21 inputs accepted")
	}
	// Multi-word case.
	rows7, err := ExhaustiveBlocks(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows7) != 2 {
		t.Fatalf("128 patterns should take 2 words, got %d", len(rows7))
	}
}
