// Package overlay implements the pre-reserved debug overlay: a
// time-multiplexed observation network planned into the layout at
// initial build time, so that changing which nets a debug campaign
// observes is a pure configuration switch instead of an incremental
// place-and-route.
//
// The overlay has two halves:
//
//   - Plan (Build): constructed once on the pristine layout. Every live
//     cell output net is assigned to one of C time-multiplex channels;
//     each channel is one physical trunk — a multi-pin net connecting
//     the driver sites of all its assigned nets to a readout pad on the
//     free IOB ring (the site an observation MISR/trace buffer would
//     occupy). The trunks are routed once by the layout's own
//     route.Router on top of the finished user wiring (RouteReserved),
//     over capacity headroom withheld from the user routing by
//     core.Spec.OverlayReserve, and locked permanently (FixedWiring).
//     A Plan is immutable and shared read-only across campaigns.
//
//   - Selector (per campaign): the channel configuration of one working
//     layout. Select(nets) points each affected channel's tap mux at a
//     new net — O(taps) map writes journaled through the layout's
//     transaction log (core.Layout.RecordUndo), so rollbacks restore
//     the selection along with the physical state. No call into place,
//     route or STA happens on this path. Nets sharing a channel cannot
//     be observed simultaneously; Partition splits a request into
//     conflict-free time-multiplex batches.
//
// The debug loop keeps the MISR-insertion CAD path as a fallback for
// nets outside overlay reach and as a differential oracle: overlay-
// observed value streams must be bit-identical to the streams the
// physical MISR path observes (internal/debug
// TestOverlayStreamsMatchCADPath pins this on catalog designs).
package overlay
