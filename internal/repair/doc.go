// Package repair is the correction engine: it turns a localization
// suspect set into an applied, verified fix without ever reading the
// golden design's structure. Where debug.CorrectFromGolden copies the
// answer out of the golden netlist (diagnosis by answer key), this
// package searches the space of candidate corrections and lets the
// golden model act only as a behavioural oracle — exactly the situation
// of a real emulation debug, where "golden" is an HDL simulator or a
// reference run, not a cell-by-cell netlist to crib from.
//
// Three candidate shapes cover the function- and wiring-shaped single
// errors the fault models inject (see faults.Kind):
//
//   - BitFlip — one truth-table entry of a suspect LUT complemented
//     (repairs LUTBitFlip injections and SEU-style configuration upsets);
//   - PinSwap — two fanin pins of a suspect LUT exchanged (repairs
//     InputSwap injections), committed as the permuted truth table, so
//     like the other two it rewrites one CLB's configuration and moves
//     no wire;
//   - Resynth — the whole truth table rebuilt from the cell's observed
//     I/O behaviour: fanin minterms observed on the implementation,
//     required outputs observed on the golden model's same-named net
//     stream, unobserved minterms kept from the current table (repairs
//     Polarity injections, stuck-driver errors and any other
//     multi-bit corruption of a k≤4 LUT).
//
// Candidates are validated 64 at a time: each one is armed as a per-lane
// truth-table substitution (sim.SetLanePatch) on a fork of the shared
// compiled implementation program, one broadcast trace replay scores the
// whole batch against the golden streams, and nothing is cloned or
// recompiled. Every golden replay goes through an Oracle, which memoizes
// it per (golden fingerprint, stimulus) as one bit per (step, net) —
// broadcast stimulus keeps every golden lane equal, so one entry serves
// every lane width — and records nets lazily, as callers ask for them.
// A second Oracle (ForImplementation, installed with SetImplOracle)
// memoizes the unrepaired implementation the same way, by prefix: an
// entry covers the steps some replay needed and keeps the machine state
// at its frontier, so the excitation check reads it warm and a longer
// reader extends it window by window. With it a batch whose cells' fanout
// cone is small replays only that cone (sim.Machine.ResumeConeInto),
// reading the cone's boundary nets and the outputs outside it from the
// memo; larger cones replay the whole program. An OracleStore shares
// entries between engines, and also keeps the stimuli the search derives
// (observation, verification, BlockStimulus) once per generator
// parameter set, named by those parameters; the campaign service backs
// it with its artifact cache. Caller-supplied stimuli must be broadcast:
// a word that is neither 0 nor all-ones is rejected with ErrNotBroadcast.
// Survivors of the detection stimulus are re-validated on an independent
// verification stimulus and ranked by minimality; the winner is applied
// to the live netlist (Candidate.Apply) and flows through the tile-local
// ECO path in internal/debug. SerialValidate replays the same candidates
// one clone+recompile at a time and is, with the whole-program replay,
// the differential oracle (surviving sets must be identical) and the
// baseline the lane-parallel speedup is measured against
// (internal/debug TestRepairCampaignMeetsBars). See DESIGN.md §10.
package repair
