package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DiskOptions tunes a DiskStore.
type DiskOptions struct {
	// SegmentBytes rotates the journal to a fresh segment file once the
	// current one reaches this size (default 4 MiB). Rotation bounds the
	// blast radius of a torn tail and keeps per-file scans short.
	SegmentBytes int64
	// NoSync skips the per-record fsync. Only the journal-throughput
	// benchmark's no-durability arm should set it: a crash can then lose
	// acknowledged records.
	NoSync bool
}

func (o DiskOptions) withDefaults() DiskOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// DiskStore is the durable Store: an append-only checksummed journal
// under <dir>/journal (segment files, fsync on every record boundary)
// plus content-addressed blob files under <dir>/blobs. Opening scans the
// journal, truncates a torn tail left by a crash and fails loudly on
// genuine corruption, so Recover after OpenDisk always reflects a
// consistent record prefix. Records are not kept in memory: Recover
// re-scans the segment files, so a long-running store's heap does not
// grow with its journal.
type DiskStore struct {
	dir string
	opt DiskOptions

	mu       sync.Mutex
	seg      *os.File
	segIdx   int
	segBytes int64
	segments int
	nextSeq  uint64
	records  int // scanned at open + appended since
	torn     int64
	tornRecs int
	stats    Stats
	closed   bool
}

const segPrefix = "seg-"

func segName(idx int) string { return fmt.Sprintf("%s%08d.wal", segPrefix, idx) }

// SegName is the on-disk name of journal segment idx (1-based). Exported
// for crash-injection harnesses that truncate or corrupt raw segments.
func SegName(idx int) string { return segName(idx) }

// RecordBoundaries walks a raw segment buffer and returns every record
// boundary offset, starting with 0. Decoding stops at the first torn or
// corrupt record, so the last element is the clean-prefix length —
// exactly the offsets a kill-at-every-record-boundary sweep wants.
func RecordBoundaries(buf []byte) []int {
	bounds := []int{0}
	off := 0
	for off < len(buf) {
		_, n, err := DecodeRecord(buf[off:])
		if err != nil {
			break
		}
		off += n
		bounds = append(bounds, off)
	}
	return bounds
}

// OpenDisk opens (creating if needed) a durable store rooted at dir. The
// journal is scanned and repaired here: a torn tail in the last segment
// is truncated away (counted in Recover and Stats), while a checksum or
// sequence break anywhere else returns an error wrapping ErrCorrupt —
// silent data invention is never an option.
func OpenDisk(dir string, opt DiskOptions) (*DiskStore, error) {
	opt = opt.withDefaults()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &DiskStore{dir: dir, opt: opt}
	sc, err := scanJournal(jdir, true, func(Record) { d.records++ })
	if err != nil {
		return nil, err
	}
	d.nextSeq = sc.maxSeq
	d.segments = len(sc.names)
	d.stats.JournalBytes = sc.bytes
	d.torn = sc.torn
	if sc.torn > 0 {
		d.tornRecs = 1
	}
	if len(sc.names) == 0 {
		if err := d.openSegment(1); err != nil {
			return nil, err
		}
		return d, nil
	}
	last := sc.names[len(sc.names)-1]
	f, err := os.OpenFile(filepath.Join(jdir, last), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal segment for append: %w", err)
	}
	d.seg = f
	d.segIdx, _ = segmentIndex(last)
	d.segBytes = sc.lastBytes
	return d, nil
}

// journalScan summarizes one pass over the journal segments.
type journalScan struct {
	names     []string // segment file names, in order
	maxSeq    uint64   // sequence of the last valid record
	bytes     int64    // clean bytes over all segments
	lastBytes int64    // clean bytes of the last segment
	torn      int64    // bytes of a torn tail on the last segment
}

// scanJournal decodes every segment under jdir in order, checks sequence
// continuity and hands each record to fn. A torn tail on the last
// segment — the residue of a crash mid-append — ends the scan; with
// truncate (at open) it is also cut from the file. Any other decode or
// sequence failure is an error wrapping ErrCorrupt.
func scanJournal(jdir string, truncate bool, fn func(Record)) (journalScan, error) {
	var sc journalScan
	names, err := segmentNames(jdir)
	if err != nil {
		return sc, err
	}
	sc.names = names
	for i, name := range names {
		last := i == len(names)-1
		path := filepath.Join(jdir, name)
		buf, err := os.ReadFile(path)
		if err != nil {
			return sc, fmt.Errorf("store: read journal segment: %w", err)
		}
		off := 0
		for off < len(buf) {
			rec, n, derr := DecodeRecord(buf[off:])
			if derr != nil {
				if last && errors.Is(derr, ErrTorn) {
					sc.torn = int64(len(buf) - off)
					if truncate {
						if err := os.Truncate(path, int64(off)); err != nil {
							return sc, fmt.Errorf("store: truncate torn tail of %s: %w", name, err)
						}
					}
					buf = buf[:off]
					break
				}
				return sc, fmt.Errorf("store: segment %s offset %d: %w", name, off, derr)
			}
			if rec.Seq != sc.maxSeq+1 {
				return sc, fmt.Errorf("%w: segment %s offset %d: sequence %d after %d",
					ErrCorrupt, name, off, rec.Seq, sc.maxSeq)
			}
			sc.maxSeq = rec.Seq
			fn(rec)
			off += n
		}
		sc.bytes += int64(len(buf))
		if last {
			sc.lastBytes = int64(len(buf))
		}
	}
	return sc, nil
}

func segmentNames(jdir string) ([]string, error) {
	ents, err := os.ReadDir(jdir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	// Segment indices must be contiguous: a missing middle segment means a
	// missing run of records, which sequence checking would report
	// confusingly late.
	for i, name := range names {
		idx, err := segmentIndex(name)
		if err != nil {
			return nil, err
		}
		first, _ := segmentIndex(names[0])
		if idx != first+i {
			return nil, fmt.Errorf("%w: journal segment %s breaks the contiguous chain", ErrCorrupt, name)
		}
	}
	return names, nil
}

func segmentIndex(name string) (int, error) {
	num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".wal")
	idx, err := strconv.Atoi(num)
	if err != nil || idx <= 0 {
		return 0, fmt.Errorf("%w: malformed journal segment name %q", ErrCorrupt, name)
	}
	return idx, nil
}

// openSegment creates segment idx and makes it current.
func (d *DiskStore) openSegment(idx int) error {
	path := filepath.Join(d.dir, "journal", segName(idx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create journal segment: %w", err)
	}
	if d.seg != nil {
		d.seg.Close()
	}
	d.seg = f
	d.segIdx = idx
	d.segBytes = 0
	d.segments++
	syncDir(filepath.Join(d.dir, "journal"))
	return nil
}

// Append implements Store: encode, write, fsync, rotate.
func (d *DiskStore) Append(rec Record) (uint64, error) {
	if err := validateAppend(rec); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, fmt.Errorf("store: append to closed store")
	}
	rec.Seq = d.nextSeq + 1
	if rec.TimeUs == 0 {
		rec.TimeUs = time.Now().UnixMicro()
	}
	buf, err := EncodeRecord(rec)
	if err != nil {
		return 0, err
	}
	if _, err := d.seg.Write(buf); err != nil {
		return 0, fmt.Errorf("store: journal append: %w", err)
	}
	if !d.opt.NoSync {
		if err := d.seg.Sync(); err != nil {
			return 0, fmt.Errorf("store: journal sync: %w", err)
		}
	}
	d.nextSeq = rec.Seq
	d.records++
	d.segBytes += int64(len(buf))
	d.stats.Appends++
	d.stats.JournalBytes += int64(len(buf))
	if d.segBytes >= d.opt.SegmentBytes {
		// The record is already written, fsynced, and applied, so a
		// rotation failure must not fail the append — the caller would
		// count a journal error for a record that is durable and will
		// replay on recovery. openSegment leaves the current segment in
		// place on failure, so appends keep landing in the oversized
		// segment and rotation is retried on the next append.
		_ = d.openSegment(d.segIdx + 1)
	}
	return rec.Seq, nil
}

// Recover implements Store by re-scanning the segment files under the
// store lock, so no append interleaves with the scan. The torn-tail
// counts are those OpenDisk found.
func (d *DiskStore) Recover() (*Recovery, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var recs []Record
	if _, err := scanJournal(filepath.Join(d.dir, "journal"), false, func(r Record) {
		recs = append(recs, r)
	}); err != nil {
		return nil, err
	}
	rec := Fold(recs)
	rec.TornBytes = d.torn
	rec.TornRecords = d.tornRecs
	return rec, nil
}

// Stats implements Store.
func (d *DiskStore) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.Records = d.records
	st.Segments = d.segments
	st.TornBytes = d.torn
	return st
}

// Close implements Store.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.seg != nil {
		if !d.opt.NoSync {
			err = d.seg.Sync()
		}
		if cerr := d.seg.Close(); err == nil {
			err = cerr
		}
		d.seg = nil
	}
	return err
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// syncDir fsyncs a directory so file creations and renames inside it
// survive a crash. Best-effort: not every filesystem supports it.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync() //nolint:errcheck // advisory
		f.Close()
	}
}
