// Package netlist defines the logic-level intermediate representation used
// by the whole flow: a directed network of LUT and DFF cells connected by
// single-driver nets. The representation is index-based (CellID/NetID) so
// that placements, routings and tile assignments in other packages can be
// stored as dense side tables.
//
// Conventions:
//   - A net has at most one driver. Primary inputs are nets with no driver
//     that are listed in PIs.
//   - LUT cells hold their function as a logic.Cover whose variable i is
//     fanin pin i. A LUT with zero fanins is a constant.
//   - DFF cells have exactly one fanin (D) and drive their output (Q) on
//     the implicit global clock edge; Init gives the power-on value.
//   - Removed cells are tombstoned (Cell.Dead) rather than compacted, so
//     IDs held by other packages stay valid; nets are never removed (a
//     removed cell leaves its output net undriven). Compact rebuilds
//     densely and returns the remapping.
//   - Every mutator is journaled (journal.go): while a transaction is
//     open — core.Layout checkpoints enable it — the inverse of each
//     mutation is recorded, and RollbackJournal restores the netlist
//     bit-identically in O(changes). SetFunc/SetInit/SwapFanin are the
//     journaled forms of direct field writes.
package netlist
