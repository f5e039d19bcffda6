package repair

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"fpgadbg/internal/netlist"
)

// ErrNotBroadcast reports a stimulus word that is neither 0 nor
// all-ones, or a row wider than the golden inputs. Candidate validation
// compares lane word 0 of the golden replay against every implementation
// lane word, and the oracle stores one bit per step; both hold only when
// every lane sees the same pattern.
var ErrNotBroadcast = errors.New("repair: stimulus is not broadcast")

// Streams is one memoized golden replay: for one stimulus, lane 0 of the
// named golden nets' value streams, bit-packed — bit s of a stream is the
// net's value at step s. Broadcast stimulus keeps every lane of the
// golden model equal, so one bit per (step, net) is the whole replay, at
// any lane width. An entry records only the nets some caller asked for;
// a published stream never changes, so readers use it without the lock.
type Streams struct {
	mu   sync.Mutex
	cols map[string][]uint64
}

func newStreams() *Streams { return &Streams{cols: make(map[string][]uint64)} }

// OracleStore shares Streams entries between oracles. OracleEntry returns
// the entry under key, calling create on a miss (its second result is the
// entry's byte charge); nil means no entry could be kept, and the lookup
// replays uncached.
type OracleStore interface {
	OracleEntry(key string, create func() (*Streams, int64)) *Streams
}

// Oracle memoizes the golden design's broadcast replays per stimulus,
// under keys <golden fingerprint>/<stimulus id>, where the id is the
// step count and a hash of the rows (stimulusID). Every Engine reads the
// golden model through one; an Oracle must only serve engines of the
// golden design whose fingerprint it was made with.
type Oracle struct {
	store OracleStore
	fp    string
}

// NewOracle returns an oracle for the golden design with fingerprint
// goldenFP, keeping its entries in store. A nil store keeps them in a
// private map, and goldenFP may then be empty.
func NewOracle(store OracleStore, goldenFP string) *Oracle {
	if store == nil {
		store = &memStore{m: make(map[string]*Streams)}
	}
	return &Oracle{store: store, fp: goldenFP}
}

// memStore is the private OracleStore of an oracle made without one.
type memStore struct {
	mu sync.Mutex
	m  map[string]*Streams
}

func (s *memStore) OracleEntry(key string, create func() (*Streams, int64)) *Streams {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[key]
	if !ok {
		st, _ = create()
		s.m[key] = st
	}
	return st
}

// stimulusID validates a broadcast stimulus over npi input columns and
// names it: the step count plus a 128-bit hash of its rows, each row
// folded in as (npi+63)/64 bit-packed words, one word at a time. Rows
// shorter than npi leave the missing inputs at zero, as a replay does;
// rows held by testgen.Repeat alias their predecessor and are folded in
// again without being re-checked.
func stimulusID(stim [][]uint64, npi int) (string, error) {
	row := make([]uint64, (npi+63)/64)
	h1 := 0x9e3779b97f4a7c15 ^ uint64(len(stim))
	h2 := 0xc2b2ae3d27d4eb4f ^ uint64(npi)
	var prev []uint64
	for s, r := range stim {
		if len(r) > npi {
			return "", fmt.Errorf("%w: step %d drives %d columns for %d inputs", ErrNotBroadcast, s, len(r), npi)
		}
		if s == 0 || len(r) != len(prev) || (len(r) > 0 && &r[0] != &prev[0]) {
			clear(row)
			for j, w := range r {
				if w+1 > 1 { // neither 0 nor all-ones
					return "", fmt.Errorf("%w: step %d column %d is %#x", ErrNotBroadcast, s, j, w)
				}
				row[j>>6] |= (w & 1) << uint(j&63)
			}
			prev = r
		}
		for _, w := range row {
			h1 = bits.RotateLeft64(h1^(w*0xff51afd7ed558ccd), 27) * 0x9e3779b97f4a7c15
			h2 = bits.RotateLeft64(h2+(w*0xc4ceb9fe1a85ec53), 31) * 0xc2b2ae3d27d4eb4f
		}
	}
	return fmt.Sprintf("%016x%016x-%d", fmix64(h1), fmix64(h2), len(stim)), nil
}

// fmix64 is MurmurHash3's 64-bit finalizer.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// streams returns the packed golden streams of the named nets under the
// broadcast stimulus stim, one per name (ErrNotBroadcast if stim is not
// broadcast). Nets the oracle's entry lacks are replayed on the engine's
// golden fork in one pass with just those nets probed, and published for
// later lookups. It counts the lookup as an oracle hit when no replay ran
// and as a miss otherwise.
func (e *Engine) streams(stim [][]uint64, names []string) ([][]uint64, error) {
	id, err := stimulusID(stim, len(e.piNames))
	if err != nil {
		return nil, err
	}
	steps := len(stim)
	words := (steps + 63) / 64
	ent := e.oracle.store.OracleEntry(e.oracle.fp+"/"+id, func() (*Streams, int64) {
		// Charged at its worst case: every golden net recorded.
		return newStreams(), int64(len(e.golden.Netlist().Nets)*words)*8 + 64
	})
	if ent == nil {
		ent = newStreams() // nothing kept: replay into a private entry
	}

	out := make([][]uint64, len(names))
	var missing []string
	ent.mu.Lock()
	for i, n := range names {
		out[i] = ent.cols[n]
		if out[i] == nil && !slices.Contains(missing, n) {
			missing = append(missing, n)
		}
	}
	ent.mu.Unlock()
	if len(missing) == 0 {
		e.oracleHits++
		return out, nil
	}
	e.oracleMisses++

	goldenNL := e.golden.Netlist()
	probes := make([]netlist.NetID, len(missing))
	for i, n := range missing {
		id, ok := goldenNL.NetByName(n)
		if !ok {
			return nil, fmt.Errorf("repair: oracle: golden design has no net %q", n)
		}
		probes[i] = id
	}
	if err := e.golden.Probe(probes...); err != nil {
		return nil, fmt.Errorf("repair: oracle: %w", err)
	}
	tr := e.golden.RunTraceInto(&e.gtr, stim)
	e.golden.ClearProbes()
	cols := make([][]uint64, len(missing))
	for k := range missing {
		col := make([]uint64, words)
		for s := 0; s < steps; s++ {
			col[s>>6] |= (tr.ProbeVal(s, k) & 1) << uint(s&63)
		}
		cols[k] = col
	}
	ent.mu.Lock()
	for k, n := range missing {
		if ent.cols[n] == nil {
			ent.cols[n] = cols[k]
		}
	}
	for i, n := range names {
		out[i] = ent.cols[n]
	}
	ent.mu.Unlock()
	return out, nil
}

// goldenBit returns lane word 0 of a packed stream at step s: 0 or
// all-ones.
func goldenBit(col []uint64, s int) uint64 { return -(col[s>>6] >> uint(s&63) & 1) }
