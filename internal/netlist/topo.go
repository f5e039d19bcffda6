package netlist

import "fmt"

// TopoOrder returns the live cells in a combinational evaluation order:
// every LUT appears after the LUT drivers of its fanins. DFFs appear at the
// end of the order (they sample already-computed values and act as sources
// for the next cycle). An error is returned when the combinational logic
// contains a cycle, naming one cell on it.
func (n *Netlist) TopoOrder() ([]CellID, error) {
	// Dependencies: LUT cell -> LUT driver of each fanin net. DFF outputs
	// and PIs are sequential/primary sources and impose no ordering.
	indeg := make([]int, len(n.Cells))
	succ := make([][]CellID, len(n.Cells))
	var luts int
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead || c.Kind != KindLUT {
			continue
		}
		luts++
		for _, f := range c.Fanin {
			d := n.Nets[f].Driver
			if d != NilCell && !n.Cells[d].Dead && n.Cells[d].Kind == KindLUT {
				succ[d] = append(succ[d], CellID(ci))
				indeg[ci]++
			}
		}
	}
	order := make([]CellID, 0, n.NumLiveCells())
	queue := make([]CellID, 0, luts)
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if !c.Dead && c.Kind == KindLUT && indeg[ci] == 0 {
			queue = append(queue, CellID(ci))
		}
	}
	done := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		done++
		for _, s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if done != luts {
		for ci := range n.Cells {
			c := &n.Cells[ci]
			if !c.Dead && c.Kind == KindLUT && indeg[ci] > 0 {
				return nil, fmt.Errorf("netlist: combinational cycle through cell %q", c.Name)
			}
		}
		return nil, fmt.Errorf("netlist: combinational cycle")
	}
	for ci := range n.Cells {
		if !n.Cells[ci].Dead && n.Cells[ci].Kind == KindDFF {
			order = append(order, CellID(ci))
		}
	}
	return order, nil
}

// Levels returns the combinational depth of each live LUT cell (sources at
// level 1) and the maximum level. DFF cells have level 0.
func (n *Netlist) Levels() (map[CellID]int, int, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	levels := make(map[CellID]int, len(order))
	max := 0
	for _, id := range order {
		c := &n.Cells[id]
		if c.Kind != KindLUT {
			levels[id] = 0
			continue
		}
		lvl := 1
		for _, f := range c.Fanin {
			d := n.Nets[f].Driver
			if d != NilCell && n.Cells[d].Kind == KindLUT {
				if l := levels[d] + 1; l > lvl {
					lvl = l
				}
			}
		}
		levels[id] = lvl
		if lvl > max {
			max = lvl
		}
	}
	return levels, max, nil
}

// TransitiveFanin returns the set of live cells in the combinational and
// sequential fan-in cone of the given nets (crossing DFF boundaries when
// through is true).
func (n *Netlist) TransitiveFanin(roots []NetID, through bool) map[CellID]bool {
	seen := make(map[CellID]bool)
	stack := make([]NetID, 0, len(roots))
	stack = append(stack, roots...)
	visited := make(map[NetID]bool)
	for len(stack) > 0 {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[net] {
			continue
		}
		visited[net] = true
		d := n.Nets[net].Driver
		if d == NilCell || n.Cells[d].Dead {
			continue
		}
		if seen[d] {
			continue
		}
		seen[d] = true
		if n.Cells[d].Kind == KindDFF && !through {
			continue
		}
		stack = append(stack, n.Cells[d].Fanin...)
	}
	return seen
}
