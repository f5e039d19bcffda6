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
// Callers resolve names to IDs once (Slots/Bind, POCols, Probe) and
// RunTrace drives a whole clocked stimulus sequence with zero per-cycle
// allocations (see DESIGN.md §3). The map-driven ReferenceMachine is kept
// only as the oracle the compiled core is regression-tested against.
//
// The paper runs designs on FPGA emulation hardware; this simulator plays
// that role (see DESIGN.md §3). Detection compares outputs against a
// golden model, and localization probes internal nets — both map directly
// onto the trace API.
//
// The lanes also serve as independent mutants under a broadcast
// stimulus: SetLaneFault arms per-lane fault perturbations (stuck-ats,
// LUT-bit flips — fault simulation, DESIGN.md §9) and SetLanePatch arms
// per-lane truth-table substitutions (repair-candidate validation,
// DESIGN.md §10), so one trace replay evaluates Lanes() mutants or
// candidate repairs with no netlist clone and no recompilation.
// CompileWidth widens the machine to W words per net (64·W lanes,
// W ≤ MaxWidth); Compile is CompileWidth with W = 1, and ForkWidth forks
// a compiled program at another width without recompiling it. Width pays
// off only for perturbed replays: an unperturbed machine under broadcast
// stimulus repeats word 0 in every word, so golden replays fork the
// program at width 1. Width 1 with nothing armed runs a scalar pass;
// every other evaluation runs the stride-W pass with the per-node
// perturbation hooks (exec.go). Cone
// restricts a program to the fanout of a set of cells, closed through
// flip-flops, and ResumeConeInto replays that cone alone from packed
// boundary streams — everything outside it carries the unperturbed
// design's broadcast values (repair-candidate validation, DESIGN.md §10).
// TraceActivity summarizes a golden run — the values every net carried,
// the minterms every LUT was presented — so fault scans can skip lane
// faults the run never excites (Activity.Excites; DESIGN.md §9).
package sim
