// Package debug drives the paper's four-step emulation debugging loop on
// top of the tiling engine: test-pattern generation, error detection,
// error localization, and error correction (pseudo-code steps 9–22).
//
// A Session holds a golden (known-good) mapped netlist and a tiled layout
// of the implementation under test. Detection emulates both on common
// stimulus and compares outputs. Localization physically inserts
// observation logic (MISRs) round by round — each insertion flowing
// through the tiling engine and paying only tile-local re-place-and-route
// — and narrows the suspect cone by comparing observed streams.
// Correction searches candidate repairs of the suspect cells with the
// lane-parallel engine in internal/repair — the golden model acts only as
// a behavioural oracle — commits the winner, a new truth table, as a
// configuration-only update of its tile (no re-place-and-route) and
// re-verifies; CorrectAuto falls back to copying the golden cell for
// errors the search cannot explain.
package debug
