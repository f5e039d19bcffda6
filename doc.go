// Package fpgadbg reproduces "Efficient Error Detection, Localization,
// and Correction for FPGA-Based Debugging" (Lach, Mangione-Smith,
// Potkonjak; DAC 2000): physical-design tiling that confines each
// emulation-debugging change — test-logic insertion or error correction —
// to the affected tiles, so back-end CAD effort scales with the change
// instead of the design.
//
// The implementation spans the full stack the paper depends on: Boolean
// function representations (internal/logic), a LUT/DFF netlist IR
// (internal/netlist), a from-scratch BLIF reader/writer (internal/blif), a
// bit-parallel functional simulator standing in for emulation hardware
// (internal/sim), technology mapping (internal/synth), XC4000-style CLB
// packing (internal/pack), a device model (internal/device), a simulated-
// annealing placer (internal/place), a negotiated-congestion router
// (internal/route), static timing analysis (internal/timing), the tiling
// engine itself (internal/core), the debugging loop (internal/debug) with
// test-logic builders (internal/instr), design-error injection
// (internal/faults) and pattern generation (internal/testgen),
// engineering-change tracing (internal/eco), partial bitstream generation
// (internal/bitstream), the nine benchmark generators (internal/bench),
// the evaluation harness (internal/experiments), and the concurrent
// debug-campaign service (internal/service) served over HTTP by
// cmd/fpgadbgd.
//
// See DESIGN.md for the system inventory (the compiled emulation
// substrate is §3) and EXPERIMENTS.md for paper-versus-measured results.
// The top-level benchmarks in bench_test.go and cmd/benchrepro regenerate
// every table and figure; the benchmark module in benchmark/ measures
// campaign turnaround end to end.
package fpgadbg
