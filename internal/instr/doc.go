// Package instr builds the observation logic of the paper's Section 4 as
// ordinary netlist cells, so that inserting a test point has a real area
// cost (CLBs) and a real physical footprint (the tiles it lands in): a
// MISR (multiple-input signature register) — one XOR/DFF stage per
// observed net plus a polynomial feedback tap, inserted by InsertMISR. The
// signature is compared off-chip against the golden model's signature,
// raising the paper's "flag" when an erroneous state was captured.
// Localization (internal/debug) inserts these round by round, each paying
// tile-local re-place-and-route.
//
// Inserted cells are ordinary LUTs and DFFs: they pack, place, route and
// simulate like design logic.
package instr
