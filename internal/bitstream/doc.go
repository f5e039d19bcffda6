// Package bitstream generates configuration images for the simulated
// device — the "revised design bitstream" of the paper's §5.2. The image
// is frame-addressed: one frame per tile (CLB configurations and the
// routing confined to that tile) plus one global frame (IOB assignments
// and inter-tile routing). Because tiling confines every debugging change
// to its affected tiles, re-configuring after a change only requires the
// frames of those tiles, plus those of any wire it adds beyond them
// (Frames names them all) — Partial/Stitch make that property checkable.
package bitstream
