package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"fpgadbg/internal/netlist"
)

// Write emits a netlist as single-model BLIF. Only live cells and nets are
// written; LUT covers are emitted in on-set phase.
func Write(w io.Writer, nl *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	name := nl.Name
	if name == "" {
		name = "top"
	}
	fmt.Fprintf(bw, ".model %s\n", sanitize(name))

	fmt.Fprintf(bw, ".inputs")
	for _, pi := range nl.PIs {
		fmt.Fprintf(bw, " %s", sanitize(nl.Nets[pi].Name))
	}
	fmt.Fprintln(bw)

	fmt.Fprintf(bw, ".outputs")
	for _, po := range nl.POs {
		fmt.Fprintf(bw, " %s", sanitize(nl.Nets[po].Name))
	}
	fmt.Fprintln(bw)

	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Dead {
			continue
		}
		switch c.Kind {
		case netlist.KindDFF:
			fmt.Fprintf(bw, ".latch %s %s re clk %d\n",
				sanitize(nl.Nets[c.Fanin[0]].Name), sanitize(nl.Nets[c.Out].Name), c.Init)
		case netlist.KindLUT:
			fmt.Fprintf(bw, ".names")
			for _, f := range c.Fanin {
				fmt.Fprintf(bw, " %s", sanitize(nl.Nets[f].Name))
			}
			fmt.Fprintf(bw, " %s\n", sanitize(nl.Nets[c.Out].Name))
			if len(c.Fanin) == 0 {
				// Constant: no row for 0, single "1" row for 1.
				if !c.Func.IsConstFalse() {
					fmt.Fprintln(bw, "1")
				}
				continue
			}
			for _, cu := range c.Func.Canon().Cubes {
				fmt.Fprintf(bw, "%s 1\n", cu.String(c.Func.N))
			}
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// ToString renders a netlist as BLIF text.
// Test fixture: BLIF round trips in the blif, bench and place tests.
func ToString(nl *netlist.Netlist) (string, error) {
	var b strings.Builder
	if err := Write(&b, nl); err != nil {
		return "", err
	}
	return b.String(), nil
}

// sanitize replaces whitespace in signal names, which BLIF cannot
// represent.
func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '\\', '#':
			return '_'
		}
		return r
	}, s)
}
