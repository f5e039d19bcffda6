// Package testgen generates test stimulus — step 10 of the paper's
// debugging loop ("generate test patterns", done in software). Patterns
// are produced as 64-wide words matching the bit-parallel simulator: one
// row applies 64 scalar test vectors at once.
//
// The primary representation is the ID-indexed stimulus block: a
// [][]uint64 where row c is one clock cycle and column j drives the j-th
// bound input of a compiled sim.Machine (see sim.Bind). Blocks carry no
// names, allocate nothing per cycle during replay, and are what every hot
// path uses. Random, the one map-keyed variant, is a test fixture; it draws
// from the same random stream, so Random(pis, ...) and
// RandomBlocks(len(pis), ...) produce identical words column for column.
package testgen
