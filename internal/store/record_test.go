package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Seq: 1, Kind: KindSubmit, ID: "c000001", TimeUs: 1111, Spec: json.RawMessage(`{"design":"9sym","fault_seed":1}`)},
		{Seq: 2, Kind: KindStart, ID: "c000001", TimeUs: 2222},
		{Seq: 3, Kind: KindBlob, ID: "netlist/9sym", Blob: "ab12", BlobKind: "netlist"},
		{Seq: 4, Kind: KindDone, ID: "c000001", TimeUs: 3333, Result: json.RawMessage(`{"digest":"deadbeef"}`)},
		{Seq: 5, Kind: KindSubmit, ID: "c000002", Spec: json.RawMessage(`{"design":"styr"}`)},
		{Seq: 6, Kind: KindFailed, ID: "c000002", Error: "synth exploded"},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		buf, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		a, _ := json.Marshal(rec)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Fatalf("round trip changed record:\n  in  %s\n  out %s", a, b)
		}
	}
}

func TestRecordDecodeStream(t *testing.T) {
	var stream []byte
	recs := sampleRecords()
	for _, rec := range recs {
		buf, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, buf...)
	}
	off, count := 0, 0
	for off < len(stream) {
		rec, n, err := DecodeRecord(stream[off:])
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if rec.Seq != recs[count].Seq {
			t.Fatalf("record %d: seq %d, want %d", count, rec.Seq, recs[count].Seq)
		}
		off += n
		count++
	}
	if count != len(recs) {
		t.Fatalf("decoded %d records, want %d", count, len(recs))
	}
}

func TestRecordTornPrefixes(t *testing.T) {
	buf, err := EncodeRecord(sampleRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of a record must decode as torn — that is the
	// exact shape a crash mid-append leaves at the journal tail.
	for n := 0; n < len(buf); n++ {
		if _, _, err := DecodeRecord(buf[:n]); !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrTorn", n, len(buf), err)
		}
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	base, err := EncodeRecord(sampleRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any single bit of a complete record must be detected: as
	// ErrCorrupt (magic/CRC/JSON damage) or as ErrTorn when the length
	// field now claims bytes beyond the buffer. It must never decode
	// silently.
	for i := 0; i < len(base); i++ {
		for bit := 0; bit < 8; bit++ {
			buf := append([]byte(nil), base...)
			buf[i] ^= 1 << bit
			_, _, err := DecodeRecord(buf)
			switch {
			case errors.Is(err, ErrCorrupt):
			case errors.Is(err, ErrTorn):
				if i >= 8 {
					t.Fatalf("byte %d bit %d: ErrTorn outside the length field", i, bit)
				}
			case err == nil:
				t.Fatalf("byte %d bit %d: corrupted record decoded cleanly", i, bit)
			default:
				t.Fatalf("byte %d bit %d: unexpected error %v", i, bit, err)
			}
		}
	}
}

func TestRecordAbsurdLengthRejected(t *testing.T) {
	buf, err := EncodeRecord(sampleRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[4:8], MaxRecordBytes+1)
	if _, _, err := DecodeRecord(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: err = %v, want ErrCorrupt", err)
	}
}

func TestFoldLifecycle(t *testing.T) {
	recs := []Record{
		{Seq: 1, Kind: KindSubmit, ID: "a", TimeUs: 10, Spec: json.RawMessage(`{"design":"9sym"}`)},
		{Seq: 2, Kind: KindSubmit, ID: "b", TimeUs: 11, Spec: json.RawMessage(`{"design":"styr"}`)},
		{Seq: 3, Kind: KindSubmit, ID: "c", TimeUs: 12, Spec: json.RawMessage(`{"design":"c880"}`)},
		{Seq: 4, Kind: KindStart, ID: "a"},
		{Seq: 5, Kind: KindStart, ID: "b"},
		{Seq: 6, Kind: KindDone, ID: "a", TimeUs: 20, Result: json.RawMessage(`{"digest":"x"}`)},
		{Seq: 7, Kind: KindBlob, ID: "netlist/9sym", Blob: "ffff", BlobKind: "netlist"},
	}
	rec := Fold(recs)
	if rec.Records != 7 || rec.MaxSeq != 7 {
		t.Fatalf("records/maxseq = %d/%d", rec.Records, rec.MaxSeq)
	}
	want := map[string]string{"a": "done", "b": "running", "c": "queued"}
	if len(rec.Campaigns) != 3 {
		t.Fatalf("campaigns = %+v", rec.Campaigns)
	}
	for _, cs := range rec.Campaigns {
		if cs.State != want[cs.ID] {
			t.Errorf("campaign %s state = %s, want %s", cs.ID, cs.State, want[cs.ID])
		}
	}
	if ref, ok := rec.Blobs["netlist/9sym"]; !ok || ref.Digest != "ffff" || ref.Kind != "netlist" {
		t.Fatalf("blob index = %+v", rec.Blobs)
	}
	if got := rec.Campaigns[0]; got.SubmitUs != 10 || got.FinishUs != 20 || string(got.Result) != `{"digest":"x"}` {
		t.Fatalf("done campaign = %+v", got)
	}
}

func TestFoldRequeueAndOrphans(t *testing.T) {
	recs := []Record{
		// Orphan transitions (their submit was lost to a torn tail in an
		// earlier crash) must be tolerated, not folded into ghosts.
		{Seq: 1, Kind: KindStart, ID: "ghost"},
		{Seq: 2, Kind: KindDone, ID: "ghost"},
		{Seq: 3, Kind: KindSubmit, ID: "a", Spec: json.RawMessage(`{}`)},
		{Seq: 4, Kind: KindStart, ID: "a"},
		{Seq: 5, Kind: KindRequeue, ID: "a"},
	}
	rec := Fold(recs)
	if len(rec.Campaigns) != 1 || rec.Campaigns[0].ID != "a" || rec.Campaigns[0].State != "queued" {
		t.Fatalf("fold = %+v", rec.Campaigns)
	}
}
