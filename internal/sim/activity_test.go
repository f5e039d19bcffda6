package sim

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/testgen"
)

// TestTraceActivityMatchesPerCycleFold holds the lane-packed activity
// fold to the naive one: step a width-1 machine one cycle at a time and
// read lane 0 of every net and every LUT's fanins. Summaries must agree
// exactly at widths 1, 3 (the hooked stride-W pass) and 8 (block
// kernels), on a stimulus that is not a whole number of 64·W chunks,
// and the trace TraceActivity records must equal RunTrace's.
func TestTraceActivityMatchesPerCycleFold(t *testing.T) {
	for _, d := range bench.Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			nl := d.Build()
			stim := holdWithTail(testgen.ScalarBlocks(len(nl.PIs), 70, 3), 2)

			ref, err := Compile(nl)
			if err != nil {
				t.Fatal(err)
			}
			levels := make([]uint8, len(nl.Nets))
			minterms := make([]uint16, len(ref.nodes))
			var seg Trace
			for c := range stim {
				ref.ResumeTraceInto(&seg, stim[c:c+1])
				for net := range levels {
					levels[net] |= 1 << (ref.val[net] & 1)
				}
				for i, nd := range ref.nodes {
					if nd.nin > 4 {
						continue
					}
					k := 0
					for j := int32(0); j < nd.nin; j++ {
						k |= int(ref.val[ref.fanin[nd.start+j]]&1) << j
					}
					minterms[i] |= 1 << k
				}
			}

			for _, w := range []int{1, 3, 8} {
				m, err := CompileWidth(nl, w)
				if err != nil {
					t.Fatal(err)
				}
				var tr Trace
				act, err := m.TraceActivity(&tr, stim)
				if err != nil {
					t.Fatal(err)
				}
				want := m.Fork().RunTrace(stim)
				for i := range want.Outs {
					if tr.Outs[i] != want.Outs[i] {
						t.Fatalf("W=%d: TraceActivity's trace differs from RunTrace at word %d", w, i)
					}
				}
				for net := range levels {
					if act.levels[net] != levels[net] {
						t.Fatalf("W=%d net %s: levels %02b, per-cycle fold %02b",
							w, nl.NetName(netlist.NetID(net)), act.levels[net], levels[net])
					}
				}
				for i := range minterms {
					if act.minterms[i] != minterms[i] {
						t.Fatalf("W=%d node %d: minterms %016b, per-cycle fold %016b",
							w, i, act.minterms[i], minterms[i])
					}
				}
			}
		})
	}
}
