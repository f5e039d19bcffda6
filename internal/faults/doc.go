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
//
// # Exact fault dropping
//
// Scan, ScanStim and Detect summarize their golden replay once
// (sim.Machine.TraceActivity) and give every fault the run never
// excites (sim.Activity.Excites) its outcome without a lane. A single
// fault changes nothing until its perturbation first fires, so a fault
// that never fires yields a mutant equal to the golden machine on every
// cycle: exactly the undetected zero syndrome. Detect is the entry for
// callers that read only Detected and FirstCycle. It replays every
// excited fault for a short first window, then repacks the faults still
// undetected and replays them from cycle 0 over the whole stimulus. A
// fault undetected inside the window has not diverged yet, so its first
// divergence is the one a single long replay finds. Progress reported to
// OnBatch stays in units of the input's lane batches. The serial oracles
// never filter; TestPrefilterSoundAcrossCatalog holds the pre-filter to
// them and TestDetectMatchesScanAcrossCatalog holds Detect to Scan.
package faults
