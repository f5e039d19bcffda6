package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeReferenceJournal fills a single-segment disk journal with n
// records and returns the raw segment bytes plus the per-record boundary
// offsets (boundaries[i] = bytes occupied by the first i records).
func writeReferenceJournal(t *testing.T, n int) (recs []Record, raw []byte, boundaries []int) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	boundaries = append(boundaries, 0)
	for i := 0; i < n; i++ {
		rec := Record{Kind: KindSubmit, ID: fmt.Sprintf("c%06d", i+1),
			Spec: json.RawMessage(fmt.Sprintf(`{"design":"9sym","fault_seed":%d}`, i))}
		if i%3 == 1 {
			rec = Record{Kind: KindStart, ID: fmt.Sprintf("c%06d", i)}
		}
		if i%3 == 2 {
			rec = Record{Kind: KindDone, ID: fmt.Sprintf("c%06d", i-1),
				Result: json.RawMessage(fmt.Sprintf(`{"digest":"%08x"}`, i))}
		}
		rec.TimeUs = int64(1000 + i)
		seq, err := d.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		rec.Seq = seq
		recs = append(recs, rec)
		st := d.Stats()
		boundaries = append(boundaries, int(st.JournalBytes))
	}
	d.Close()
	raw, err = os.ReadFile(filepath.Join(dir, "journal", segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return recs, raw, boundaries
}

// openTruncated copies a journal prefix of cut bytes into a fresh store
// dir and opens it.
func openTruncated(t *testing.T, raw []byte, cut int) (*DiskStore, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal", segName(1)), raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenDisk(dir, DiskOptions{})
}

// TestCrashTruncateEveryByte is the exhaustive kill-point sweep at the
// store layer: a crash can cut the journal at ANY byte offset, and
// recovery must always come back with exactly the records that were fully
// appended before the cut — no error, no invented record, no lost
// complete record.
func TestCrashTruncateEveryByte(t *testing.T) {
	recs, raw, boundaries := writeReferenceJournal(t, 24)
	fullRecords := func(cut int) int {
		n := 0
		for n+1 <= len(recs) && boundaries[n+1] <= cut {
			n++
		}
		return n
	}
	for cut := 0; cut <= len(raw); cut++ {
		d, err := openTruncated(t, raw, cut)
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		rec, err := d.Recover()
		if err != nil {
			t.Fatalf("cut %d: recover failed: %v", cut, err)
		}
		want := fullRecords(cut)
		if rec.Records != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, rec.Records, want)
		}
		if want > 0 && rec.MaxSeq != recs[want-1].Seq {
			t.Fatalf("cut %d: max seq %d, want %d", cut, rec.MaxSeq, recs[want-1].Seq)
		}
		atBoundary := boundaries[want] == cut
		if atBoundary && (rec.TornBytes != 0 || rec.TornRecords != 0) {
			t.Fatalf("cut %d: clean boundary reported torn (%+v)", cut, rec)
		}
		if !atBoundary && rec.TornBytes != int64(cut-boundaries[want]) {
			t.Fatalf("cut %d: torn bytes %d, want %d", cut, rec.TornBytes, cut-boundaries[want])
		}
		// The store must be writable after repair: the next append chains
		// onto the surviving sequence.
		seq, err := d.Append(Record{Kind: KindSubmit, ID: "c999999", Spec: json.RawMessage(`{}`)})
		if err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if want > 0 && seq != recs[want-1].Seq+1 {
			t.Fatalf("cut %d: post-recovery seq %d, want %d", cut, seq, recs[want-1].Seq+1)
		}
		d.Close()
	}
}

// TestCrashDoubleRestart pins that a second crash-and-recover on an
// already-repaired journal is stable: recover, append, cut again,
// recover again.
func TestCrashDoubleRestart(t *testing.T) {
	_, raw, boundaries := writeReferenceJournal(t, 9)
	cut := boundaries[5] + 7 // mid-record tear after 5 full records
	d, err := openTruncated(t, raw, cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(Record{Kind: KindSubmit, ID: "c777777", Spec: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	dir := d.Dir()
	d.Close()
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 6 || rec.TornRecords != 0 {
		t.Fatalf("second recovery = %+v, want 6 records and a clean tail", rec)
	}
}

// TestCrashBitRotNeverInventsRecords flips every byte of the journal (one
// at a time) and checks the safety property of the checksums: recovery
// either fails loudly with ErrCorrupt, or returns an exact prefix of the
// original record stream. It must never return a full-length stream with
// silently altered content.
func TestCrashBitRotNeverInventsRecords(t *testing.T) {
	recs, raw, _ := writeReferenceJournal(t, 12)
	wantJSON := make([]string, len(recs))
	for i, r := range recs {
		b, _ := json.Marshal(r)
		wantJSON[i] = string(b)
	}
	step := 1
	if testing.Short() {
		step = 17
	}
	for i := 0; i < len(raw); i += step {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x20
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal", segName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d: unexpected open error %v", i, err)
			}
			continue // corruption detected and refused: the safe outcome
		}
		rec, err := d.Recover()
		if err != nil {
			t.Fatalf("byte %d: recover after clean open: %v", i, err)
		}
		// A flip in a length field can masquerade as a torn tail, so a
		// shortened prefix is acceptable; altered content is not.
		if rec.Records > len(recs) {
			t.Fatalf("byte %d: recovered %d records from a %d-record journal", i, rec.Records, len(recs))
		}
		// Verify the surviving records are bit-identical to the originals.
		d.Close()
		d2, err := OpenDisk(d.Dir(), DiskOptions{})
		if err != nil {
			t.Fatalf("byte %d: reopen: %v", i, err)
		}
		j := 0
		if _, err := scanJournal(filepath.Join(d2.Dir(), "journal"), false, func(r Record) {
			b, _ := json.Marshal(r)
			if string(b) != wantJSON[j] {
				t.Fatalf("byte %d: record %d content altered:\n  got  %s\n  want %s", i, j, b, wantJSON[j])
			}
			j++
		}); err != nil {
			t.Fatalf("byte %d: rescan: %v", i, err)
		}
		d2.Close()
	}
}
