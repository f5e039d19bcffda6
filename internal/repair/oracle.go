package repair

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/testgen"
)

// ErrNotBroadcast reports a stimulus word that is neither 0 nor
// all-ones, or a row wider than the golden inputs. Candidate validation
// compares lane word 0 of the golden replay against every implementation
// lane word, and the oracle stores one bit per step; both hold only when
// every lane sees the same pattern.
var ErrNotBroadcast = errors.New("repair: stimulus is not broadcast")

// Streams is one memoized broadcast replay: for one stimulus, lane 0 of
// the named nets' value streams, bit-packed — bit s of a stream is the
// net's value at step s. Broadcast stimulus keeps every lane of an
// unperturbed machine equal, so one bit per (step, net) is the whole
// replay, at any lane width. An entry records only the nets some caller
// asked for. A golden entry covers its whole stimulus and a published
// stream never changes, so readers use it without the lock. An
// implementation entry may cover only a prefix (see implStreams): steps
// is its frontier, state the scalar flip-flop state there, and bits below
// the frontier never change. A derived stimulus is kept as the streams of
// its input columns (see derived).
type Streams struct {
	mu    sync.Mutex
	cols  map[string][]uint64
	steps int
	state []uint64
}

func newStreams() *Streams { return &Streams{cols: make(map[string][]uint64)} }

// OracleStore shares Streams entries between oracles. OracleEntry returns
// the entry under key, calling create on a miss (its second result is the
// entry's byte charge); nil means no entry could be kept, and the lookup
// replays uncached.
type OracleStore interface {
	OracleEntry(key string, create func() (*Streams, int64)) *Streams
}

// Oracle memoizes one design's broadcast replays per stimulus. A golden
// oracle keys its entries oracle/<golden fingerprint>/<stimulus id>, an
// implementation oracle impl/<implementation fingerprint>/<stimulus id>;
// the id is either derived from the stimulus's generator parameters or
// the step count and a hash of the rows (stimulusID). Every Engine reads
// the golden model through one and the unrepaired implementation through
// another; an Oracle must only serve engines of the design whose
// fingerprint it was made with.
type Oracle struct {
	store  OracleStore
	prefix string
}

// NewOracle returns an oracle for the golden design with fingerprint
// goldenFP, keeping its entries in store. A nil store keeps them in a
// private map, and goldenFP may then be empty.
func NewOracle(store OracleStore, goldenFP string) *Oracle {
	if store == nil {
		store = &memStore{m: make(map[string]*Streams)}
	}
	return &Oracle{store: store, prefix: "oracle/" + goldenFP + "/"}
}

// ForImplementation returns an oracle for the implementation netlist with
// content fingerprint implFP, sharing o's store. Engine.SetImplOracle
// installs it.
func (o *Oracle) ForImplementation(implFP string) *Oracle {
	return &Oracle{store: o.store, prefix: "impl/" + implFP + "/"}
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

// stimulus is one broadcast stimulus as the engine replays it: the id
// its oracle entries are keyed under, its step count, and its rows, built
// on first use — a stimulus named by its generator parameters needs no
// rows while every stream asked of it is memoized.
type stimulus struct {
	id    string
	steps int
	rows  [][]uint64
	build func() [][]uint64
}

// Rows returns the stimulus rows, building them on first use.
func (s *stimulus) Rows() [][]uint64 {
	if s.build != nil {
		s.rows, s.build = s.build(), nil
	}
	return s.rows
}

// named validates caller-supplied stimulus (ErrNotBroadcast) and names
// it by hash.
func (e *Engine) named(stim [][]uint64) (*stimulus, error) {
	id, err := stimulusID(stim, len(e.piNames))
	if err != nil {
		return nil, err
	}
	return &stimulus{id: id, steps: len(stim), rows: stim}, nil
}

// concat is stimulus a followed by b. Its id joins theirs, so a
// concatenation is named without hashing its rows.
func concat(a, b *stimulus) *stimulus {
	return &stimulus{id: a.id + "+" + b.id, steps: a.steps + b.steps, build: func() [][]uint64 {
		return append(append(make([][]uint64, 0, a.steps+b.steps), a.Rows()...), b.Rows()...)
	}}
}

// derived returns the broadcast stimulus gen draws over the golden inputs
// — patterns rows, each held cycles steps — named by its generator
// parameters. The drawn patterns are kept once per parameter set in the
// golden oracle's store, as one packed stream per input column, so a
// later engine rebuilds the rows from those bits instead of drawing
// again, and only when a replay needs them. kind names gen.
func (e *Engine) derived(kind string, patterns int, seed int64, cycles int, gen func(npi, patterns int, seed int64) [][]uint64) *stimulus {
	npi := len(e.piNames)
	cycles = max(cycles, 1)
	st := &stimulus{
		id:    fmt.Sprintf("%s%d-%d-%d-%d", kind, npi, patterns, seed, cycles),
		steps: patterns * cycles,
	}
	words := (patterns + 63) / 64
	var drawn [][]uint64
	ent := e.oracle.store.OracleEntry(fmt.Sprintf("stim/%s%d-%d-%d", kind, npi, patterns, seed), func() (*Streams, int64) {
		drawn = gen(npi, patterns, seed)
		ent := newStreams()
		for j := 0; j < npi; j++ {
			col := make([]uint64, words)
			for p, row := range drawn {
				col[p>>6] |= (row[j] & 1) << uint(p&63)
			}
			ent.cols[strconv.Itoa(j)] = col
		}
		return ent, int64(npi*words)*8 + 64
	})
	switch {
	case drawn != nil:
		st.rows = testgen.Repeat(drawn, cycles)
	case ent == nil:
		st.build = func() [][]uint64 { return testgen.Repeat(gen(npi, patterns, seed), cycles) }
	default:
		st.build = func() [][]uint64 {
			cols := make([][]uint64, npi)
			ent.mu.Lock()
			for j := range cols {
				cols[j] = ent.cols[strconv.Itoa(j)]
			}
			ent.mu.Unlock()
			flat := make([]uint64, patterns*npi)
			rows := make([][]uint64, patterns)
			for p := range rows {
				row := flat[p*npi : (p+1)*npi : (p+1)*npi]
				for j, col := range cols {
					row[j] = -(col[p>>6] >> uint(p&63) & 1)
				}
				rows[p] = row
			}
			return testgen.Repeat(rows, cycles)
		}
	}
	return st
}

// streams is goldenStreams for caller-supplied stimulus.
func (e *Engine) streams(stim [][]uint64, names []string) ([][]uint64, error) {
	st, err := e.named(stim)
	if err != nil {
		return nil, err
	}
	return e.goldenStreams(st, names)
}

// goldenStreams returns the packed golden streams of the named nets under
// st, one per name. Nets the oracle's entry lacks are replayed on the
// engine's golden fork in one pass with just those nets probed, and
// published for later lookups. It counts the lookup as an oracle hit when
// no replay ran and as a miss otherwise.
func (e *Engine) goldenStreams(st *stimulus, names []string) ([][]uint64, error) {
	steps := st.steps
	words := (steps + 63) / 64
	ent := e.oracle.store.OracleEntry(e.oracle.prefix+st.id, func() (*Streams, int64) {
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
	tr := e.golden.RunTraceInto(&e.gtr, st.Rows())
	e.golden.ClearProbes()
	cols := make([][]uint64, len(missing))
	for k := range missing {
		cols[k] = packProbe(tr, k, 0, steps, make([]uint64, words))
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

// packProbe ORs lane 0 of probed net k over tr's cycles into col, trace
// cycle c landing at bit from+c, and returns col.
func packProbe(tr *sim.Trace, k, from, steps int, col []uint64) []uint64 {
	for c := 0; c < steps; c++ {
		s := from + c
		col[s>>6] |= (tr.ProbeVal(c, k) & 1) << uint(s&63)
	}
	return col
}

// goldenBit returns lane word 0 of a packed stream at step s: 0 or
// all-ones.
func goldenBit(col []uint64, s int) uint64 { return -(col[s>>6] >> uint(s&63) & 1) }
