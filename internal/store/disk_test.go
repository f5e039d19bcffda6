package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func appendN(t *testing.T, s Store, n int) []Record {
	t.Helper()
	var out []Record
	for i := 0; i < n; i++ {
		rec := Record{
			Kind: KindSubmit,
			ID:   fmt.Sprintf("c%06d", i+1),
			Spec: json.RawMessage(fmt.Sprintf(`{"design":"9sym","fault_seed":%d}`, i)),
		}
		seq, err := s.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		rec.Seq = seq
		out = append(out, rec)
	}
	return out
}

func TestDiskAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, d, 25)
	if _, err := d.Append(Record{Kind: KindStart, ID: "c000003"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(Record{Kind: KindStart, ID: "c000004"}); err == nil {
		t.Fatal("append after close succeeded")
	}

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 26 || rec.MaxSeq != 26 || rec.TornRecords != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if len(rec.Campaigns) != len(want) {
		t.Fatalf("campaigns = %d, want %d", len(rec.Campaigns), len(want))
	}
	for i, cs := range rec.Campaigns {
		if cs.ID != want[i].ID {
			t.Fatalf("campaign %d = %s, want %s", i, cs.ID, want[i].ID)
		}
	}
	if st := rec.Campaigns[2].State; st != "running" {
		t.Fatalf("c000003 state = %s, want running", st)
	}
	// Appends continue the sequence chain across the reopen.
	seq, err := d2.Append(Record{Kind: KindDone, ID: "c000003"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 27 {
		t.Fatalf("seq after reopen = %d, want 27", seq)
	}
}

func TestDiskSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, d, 40)
	st := d.Stats()
	if st.Segments < 3 {
		t.Fatalf("segments = %d, want rotation past 3 (stats %+v)", st.Segments, st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 3 {
		t.Fatalf("journal dir has %d segment files", len(ents))
	}
	d2, err := OpenDisk(dir, DiskOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 40 {
		t.Fatalf("recovered %d records across segments, want 40", rec.Records)
	}
}

func TestDiskMissingSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, d, 30)
	d.Close()
	// Deleting a middle segment breaks the chain and must fail open.
	if err := os.Remove(filepath.Join(dir, "journal", segName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir, DiskOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with missing segment: err = %v, want ErrCorrupt", err)
	}
}

func TestMemDiskFoldEquivalence(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := NewMem()
	script := []Record{
		{Kind: KindSubmit, ID: "c000001", Spec: json.RawMessage(`{"design":"9sym"}`)},
		{Kind: KindSubmit, ID: "c000002", Spec: json.RawMessage(`{"design":"styr"}`)},
		{Kind: KindStart, ID: "c000001"},
		{Kind: KindDone, ID: "c000001", Result: json.RawMessage(`{"digest":"d"}`)},
		{Kind: KindStart, ID: "c000002"},
		{Kind: KindBlob, ID: "netlist/9sym", Blob: "00ff", BlobKind: "netlist"},
	}
	for _, rec := range script {
		rec.TimeUs = 42 // pin so the folds compare byte for byte
		if _, err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	dr, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	db, _ := json.Marshal(dr)
	mb, _ := json.Marshal(mr)
	if !bytes.Equal(db, mb) {
		t.Fatalf("disk and mem folds differ:\n  disk %s\n  mem  %s", db, mb)
	}
}

// TestDiskHoldsNoRecordsInMemory appends records carrying ~2 KiB specs
// and checks that the live heap does not grow with them: a durable
// daemon's journal lives on disk, and Recover re-reads it from there.
func TestDiskHoldsNoRecordsInMemory(t *testing.T) {
	const n, specBytes = 4000, 2048
	d, err := OpenDisk(t.TempDir(), DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pad := strings.Repeat("x", specBytes)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < n; i++ {
		// A fresh spec per record, as the service marshals one per submit.
		spec := json.RawMessage(fmt.Sprintf(`{"seed":%d,"pad":%q}`, i, pad))
		if _, err := d.Append(Record{Kind: KindSubmit, ID: fmt.Sprintf("c%06d", i+1), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	// Holding the records would retain n·specBytes ≈ 8 MiB.
	if grew := int64(after) - int64(before); grew > 1<<20 {
		t.Fatalf("live heap grew %d bytes over %d appends", grew, n)
	}
	if st := d.Stats(); st.Records != n || st.Appends != n {
		t.Fatalf("stats records/appends = %d/%d, want %d", st.Records, st.Appends, n)
	}
	rec, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != n || rec.MaxSeq != n || len(rec.Campaigns) != n {
		t.Fatalf("recovered %d records (max seq %d, %d campaigns), want %d", rec.Records, rec.MaxSeq, len(rec.Campaigns), n)
	}
}

func TestBlobRoundTripBothStores(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for name, s := range map[string]Store{"disk": d, "mem": NewMem()} {
		t.Run(name, func(t *testing.T) {
			data := []byte("some spilled artifact bytes")
			dig, err := s.PutBlob("netlist", data)
			if err != nil {
				t.Fatal(err)
			}
			dig2, err := s.PutBlob("netlist", data)
			if err != nil || dig2 != dig {
				t.Fatalf("re-put: %s %v, want %s", dig2, err, dig)
			}
			got, err := s.GetBlob("netlist", dig)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get = %q %v", got, err)
			}
			if _, err := s.GetBlob("netlist", "0000000000000000000000000000000000000000000000000000000000000000"); err == nil {
				t.Fatal("missing blob returned without error")
			}
			st := s.Stats()
			if st.BlobPuts != 2 || st.Blobs != 1 {
				t.Fatalf("blob stats = %+v", st)
			}
		})
	}
}

func TestBlobPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("durable artifact")
	dig, err := d.PutBlob("trace", data)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.GetBlob("trace", dig)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("blob lost across reopen: %q %v", got, err)
	}
}

func TestBlobBitRotDetected(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dig, err := d.PutBlob("netlist", []byte("pristine content"))
	if err != nil {
		t.Fatal(err)
	}
	path := d.blobPath("netlist", dig)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetBlob("netlist", dig); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-rotted blob: err = %v, want ErrCorrupt", err)
	}
}

func TestBlobRejectsBadKindAndDigest(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.PutBlob("../escape", []byte("x")); err == nil {
		t.Fatal("path-traversal blob kind accepted")
	}
	if _, err := d.GetBlob("netlist", "../../etc/passwd"); err == nil {
		t.Fatal("path-traversal digest accepted")
	}
	if _, err := d.GetBlob("netlist", "zz"); err == nil {
		t.Fatal("malformed digest accepted")
	}
}
