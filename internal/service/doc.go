// Package service turns the one-shot debugging loop into a long-running,
// concurrent campaign server: the production face of the paper's argument
// that debug productivity is bounded by how fast the
// detect → localize → correct loop re-spins.
//
// A Service owns a bounded worker pool fed by a priority FIFO queue of
// campaigns, a content-addressed artifact cache (mapped netlists,
// compiled simulator programs, pristine layouts with their build effort,
// golden reference traces and fault dictionaries, keyed by netlist
// fingerprint + build parameters, with singleflight dedup and LRU +
// byte-budget eviction), and per-campaign progress events streamed as
// they happen. Campaigns are cancellable at every stage through contexts
// threaded into internal/debug and the fault scanner's batch callback.
//
// Three campaign kinds share the queue and cache (Spec.Kind):
//
//   - KindDebug runs the full detect → localize → correct loop against an
//     injected design error; with Spec.UseDict it consults a cached fault
//     dictionary (debug.BuildFaultDict) and skips probe insertion for
//     errors the dictionary names from the PO-mismatch signature alone.
//   - KindRepair is the same loop capped at one iteration, with the
//     dictionary always attached.
//   - KindFaultScan fault-simulates the design's exhaustive single-fault
//     universe — stuck-at-0/1 per net, single LUT-bit flips per cell — on
//     the lane-parallel mutant engine (internal/faults.Detect) and reports
//     detection coverage and latency. It needs no layout and no
//     injection, so a warm scan costs one trace replay per 64·W faults
//     (Spec.SimLanes picks the lane-vector width W).
//
// Every campaign runs one pipeline of plain stage functions
// (pipeline.go): golden → inject → lease → session → loop,
// with faultscan branching off after golden. A panic in any stage fails
// that campaign alone, and Spec.Validate bounds every size a request can
// ask for.
//
// The same typed API (Submit / Status / Events / Wait / Cancel) is served
// in-process (cmd/fpgadbg without -remote, and the benchmark) and over
// HTTP/JSON by cmd/fpgadbgd, one Service per daemon (see http.go and
// client.go). With Config.Store the service journals campaign
// lifecycles and re-runs interrupted campaigns on Open (persist.go).
package service
