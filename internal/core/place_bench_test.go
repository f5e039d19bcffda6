package core

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/synth"
)

// BenchmarkPlaceC880 measures the two full placements a campaign on a
// never-seen c880 bug pays: the initial tiled build and the full
// re-place-and-route baseline, at the campaign service's physical-design
// defaults (PlaceEffort 0.5, Overhead 0.20, TileFrac 0.10).
func BenchmarkPlaceC880(b *testing.B) {
	mapped, err := synth.TechMap(bench.C880())
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{Seed: 1, PlaceEffort: 0.5, Overhead: 0.20, TileFrac: 0.10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := BuildMapped(mapped.Clone(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.FullRePlaceRoute(spec.Seed + 1000); err != nil {
			b.Fatal(err)
		}
	}
}
