// Package sim is the emulation substrate: a compiled, 64-way bit-parallel
// functional simulator for netlist designs. Each net carries a 64-bit word
// whose bit p is the net's value under input pattern p, so one pass over
// the levelized network evaluates 64 test patterns.
//
// Compile lowers a netlist into a flat, allocation-free program: fanins
// are packed into one CSR array, LUTs of four or fewer inputs run as
// specialized truth-table kernels (straight-line word ops, no cube
// iteration), and wider LUTs fall back to the generic cover evaluator
// over a preallocated scratch buffer. Primary inputs, primary outputs and
// flip-flops are resolved to dense index tables once at compile time.
//
// Two calling conventions are offered:
//
//   - The ID-based batch API — Slots/Bind, Probe, RunTrace — drives a
//     whole clocked stimulus sequence with zero per-cycle allocations and
//     is what every hot path in this repository uses (see DESIGN.md §3).
//   - The name/map API — SetPI, Step, Outputs, Net — is a thin
//     compatibility shim kept for external callers and tests; it pays a
//     map allocation and string hashing per cycle.
//
// The paper runs designs on FPGA emulation hardware; this simulator plays
// that role (see DESIGN.md §3). Detection compares outputs against a
// golden model, and localization probes internal nets — both map directly
// onto the trace API (and, in shim form, Machine.Out and Machine.Net).
//
// The lanes also serve as independent mutants under a broadcast
// stimulus: SetLaneFault arms per-lane fault perturbations (stuck-ats,
// LUT-bit flips — fault simulation, DESIGN.md §9) and SetLanePatch arms
// per-lane truth-table substitutions (repair-candidate validation,
// DESIGN.md §10), so one trace replay evaluates Lanes() mutants or
// candidate repairs with no netlist clone and no recompilation.
// CompileWidth widens the machine to W words per net (64·W lanes,
// W ≤ MaxWidth); Compile is CompileWidth with W = 1. TraceActivity
// summarizes a golden run — the values every net carried, the minterms
// every LUT was presented — so fault scans can skip lane faults the run
// never excites (Activity.Excites; DESIGN.md §9).
package sim
