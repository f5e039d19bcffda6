// Package core implements the paper's contribution: physical-design tiling
// for FPGA emulation debugging. A Layout is a placed-and-routed design
// whose device area is partitioned into independent rectangular tiles with
// locked interfaces. Debugging steps (test-logic insertion, error
// correction) are applied as netlist deltas; the engine identifies the
// affected tiles, recruits neighbors when free resources run short, clears
// and re-places-and-routes only those tiles, and re-locks the interfaces —
// so back-end CAD effort scales with the change, not the design. A delta
// that moves no cell and no wire (a LUT table, a flip-flop init, the
// order of a LUT's input pins) is a configuration-only update: it
// rewrites its CLBs' tile frames and pays no placement or routing.
//
// The three baselines of Figure 5 are provided alongside: full
// re-place-and-route (functional-block granularity, the Quick_ECO model —
// the paper treats each benchmark as a single functional block) and an
// incremental place-and-route model (ripple re-placement without locked
// interfaces).
//
// The physical state is transactional (DESIGN.md §11): Checkpoint opens
// an undo journal spanning the netlist, packing, placement, pads and
// routes; Rollback restores the layout bit-identically in O(changes)
// and Commit nests. ApplyDelta runs inside its own transaction, so a
// failed update can never leave a half-mutated layout. A persistent
// route.Router rides along, giving the debug loop tile-local routing
// without per-update setup cost; StateDigest and VerifyLayout are the
// bit-identity and invariant oracles over all of it. TimingInput hands
// the placed-and-routed state to timing.Analyze for Table 1's overhead.
package core
