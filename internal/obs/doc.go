// Package obs is the dependency-free observability layer of the debug
// loop: a concurrency-safe metrics registry (monotonic counters, gauges
// and fixed-bucket power-of-2-nanosecond latency histograms with
// p50/p90/p99 snapshots) plus lightweight spans that assemble into a
// per-campaign StageTrace — one timestamp+duration pair per pipeline
// stage (queue, synth, map, place, route, compile, goldentrace,
// detect, localize-dict, localize-probe, repair-enumerate,
// repair-validate, eco-verify, faultscan).
//
// Every type is nil-receiver safe: a nil *Trace hands out nil *Spans
// whose Start/Add/End are no-ops, so instrumented code threads a single
// pointer and telemetry can be disabled (service.Config.NoTelemetry)
// without a second code path. Span End() feeds both the owning Trace
// (per-campaign aggregation) and the shared Registry (service-lifetime
// "stage.<name>" histograms served at /metrics).
//
// See DESIGN.md §13 for the architecture and the span data-flow diagram.
package obs
