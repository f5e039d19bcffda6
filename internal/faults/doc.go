// Package faults models, enumerates and simulates design errors — the
// bugs the paper's detect → localize → correct loop exists to remove.
//
// Two complementary fault surfaces are offered:
//
// # Injection (the debugging workload)
//
// Inject and InjectRandom mutate a netlist in place with one
// functional-design-error from the literature: a wrong LUT function
// (LUTBitFlip), swapped fanin connections (InputSwap), inverted output
// polarity (Polarity) or a mis-wired fanin (WrongNet). Injections are
// deterministic under a seed and return an Injection record naming the
// mutated cell, which the test suite uses to verify that localization
// finds the right site. Failures are typed: errors.Is(err, ErrNoSite)
// means the design has no cell the kind could ever apply to, while
// ErrExhausted means eligible sites exist but the seeded random search
// gave up (retry with another seed).
//
// # Enumeration and fault-parallel scanning (the campaign workload)
//
// Universe enumerates the exhaustive single-fault list of a design —
// stuck-at-0/1 on every live net plus every single LUT-bit flip of every
// LUT cell, the classic SEU model for FPGA configuration memory — and
// Batches/BatchesN group it into lane-sized batches, one fault per
// simulator bit lane. Scan replays a broadcast stimulus over each batch
// on a forked sim.Machine (sim.SetLaneFault), so Lanes() — 64·W on a
// width-W lane-vector program — mutants are simulated per trace
// with no netlist clone and no recompile, and returns each fault's
// detection outcome and PO-mismatch signature. SerialScan computes the
// same results one mutated netlist at a time; it is the differential
// oracle for Scan and the baseline the fault-parallel speedup is
// measured against (TestScanFasterThanSerial). The signatures feed
// the fault dictionary that internal/debug uses to localize errors
// without inserting physical probes (see DESIGN.md §9).
package faults
