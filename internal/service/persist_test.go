package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpgadbg/internal/store"
)

// runToDigest runs one campaign on a fresh throwaway service and returns
// its result digest — the uninterrupted reference every recovery test
// compares against.
func runToDigest(t *testing.T, spec Spec) string {
	t.Helper()
	svc := New(Config{Workers: 1})
	defer svc.Close()
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest
}

func openDisk(t *testing.T, dir string) *store.DiskStore {
	t.Helper()
	d, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPersistLifecycleJournaled pins the journal contents of one full
// campaign life: submit → start → done, with the result replayable.
func TestPersistLifecycleJournaled(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{Workers: 1, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(fastSpec("9sym", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close() // closes the store too

	d := openDisk(t, dir)
	defer d.Close()
	rec, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Campaigns) != 1 {
		t.Fatalf("journaled campaigns = %+v", rec.Campaigns)
	}
	cs := rec.Campaigns[0]
	if cs.ID != id || cs.State != "done" {
		t.Fatalf("journaled state = %s/%s, want %s/done", cs.ID, cs.State, id)
	}
	var r Result
	if err := json.Unmarshal(cs.Result, &r); err != nil {
		t.Fatalf("journaled result unreadable: %v", err)
	}
	if r.Digest != res.Digest {
		t.Fatalf("journaled digest %s, want %s", r.Digest, res.Digest)
	}
}

// TestPersistRestartRestoresTerminal reopens a store full of finished
// campaigns: they must come back queryable with results intact, and new
// submissions must continue the ID chain instead of colliding.
func TestPersistRestartRestoresTerminal(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{Workers: 2, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	spec := fastSpec("9sym", 2)
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2, err := Open(Config{Workers: 2, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st, err := svc2.Status(id)
	if err != nil {
		t.Fatalf("restored campaign lost: %v", err)
	}
	if st.State != StateDone || st.Result == nil || st.Result.Digest != want.Digest {
		t.Fatalf("restored status = %+v", st)
	}
	id2, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restarted service reissued campaign ID %s", id)
	}
	if _, err := svc2.Wait(context.Background(), id2); err != nil {
		t.Fatal(err)
	}
}

// TestPersistRequeueRunsToSameDigest is the headline resume-determinism
// differential: campaigns journaled as submitted (their daemon died
// before finishing them) must re-run after Open and land on digests
// bit-identical to uninterrupted runs — across two catalog designs.
func TestPersistRequeueRunsToSameDigest(t *testing.T) {
	specs := []Spec{fastSpec("9sym", 3), fastSpec("styr", 4)}
	want := make([]string, len(specs))
	for i, sp := range specs {
		want[i] = runToDigest(t, sp)
	}

	dir := t.TempDir()
	d := openDisk(t, dir)
	ids := make([]string, len(specs))
	for i, sp := range specs {
		sp = sp.withDefaults()
		specJSON, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = fmt.Sprintf("c%06d", i+1)
		if _, err := d.Append(store.Record{Kind: store.KindSubmit, ID: ids[i], Spec: specJSON}); err != nil {
			t.Fatal(err)
		}
	}
	// The second campaign had already been picked up when the "crash"
	// hit — a running campaign must requeue exactly like a queued one.
	if _, err := d.Append(store.Record{Kind: store.KindStart, ID: ids[1]}); err != nil {
		t.Fatal(err)
	}
	d.Close()

	svc, err := Open(Config{Workers: 2, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Stats().Recovered; got != int64(len(specs)) {
		t.Fatalf("recovered = %d, want %d", got, len(specs))
	}
	for i, id := range ids {
		res, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("requeued %s: %v", id, err)
		}
		if res.Digest != want[i] {
			t.Fatalf("requeued %s digest %s, want %s (resume is not deterministic)", id, res.Digest, want[i])
		}
		if res.Trace != nil && res.Trace.Stage("resume") == nil {
			t.Fatalf("requeued %s trace has no resume stage: %+v", id, res.Trace.Stages)
		}
	}
}

// TestPersistCrashAtEveryRecordBoundary is the service-level kill sweep:
// take the journal a finished two-campaign daemon wrote, truncate it at
// every record boundary, and reopen a service on each prefix. Whatever
// survives must either already be terminal with the reference digest or
// re-run to it. No prefix may wedge the daemon.
func TestPersistCrashAtEveryRecordBoundary(t *testing.T) {
	specs := []Spec{fastSpec("9sym", 5), fastSpec("styr", 6)}
	want := map[string]string{}
	dir := t.TempDir()
	svc, err := Open(Config{Workers: 1, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i], err = svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		res, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = res.Digest
	}
	svc.Close()

	seg := filepath.Join(dir, "journal", store.SegName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := store.RecordBoundaries(raw)
	if len(boundaries) < 5 {
		t.Fatalf("reference journal too small: boundaries %v", boundaries)
	}
	blobs := filepath.Join(dir, "blobs")
	for _, cut := range boundaries {
		cutDir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(cutDir, "journal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, "journal", store.SegName(1)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Blobs survive crashes independently of the journal (temp+rename
		// publication), so every cut sees the full blob area.
		if err := os.CopyFS(filepath.Join(cutDir, "blobs"), os.DirFS(blobs)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		cutSvc, err := Open(Config{Workers: 2, Store: openDisk(t, cutDir)})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		for id, digest := range want {
			st, err := cutSvc.Status(id)
			if err != nil {
				continue // submit record fell past the cut: legitimately gone
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := cutSvc.Wait(ctx, id)
			cancel()
			if err != nil {
				t.Fatalf("cut %d: campaign %s (restored as %s): %v", cut, id, st.State, err)
			}
			if res.Digest != digest {
				t.Fatalf("cut %d: campaign %s digest %s, want %s", cut, id, res.Digest, digest)
			}
		}
		cutSvc.Close()
	}
}

// TestPersistWarmResumeHitsSpill proves the blob spill pays off: a
// restarted daemon re-running a campaign it has seen before serves the
// mapped netlist from the store instead of re-synthesizing — and still
// lands on the same digest.
func TestPersistWarmResumeHitsSpill(t *testing.T) {
	spec := fastSpec("styr", 7)
	want := runToDigest(t, spec)

	dir := t.TempDir()
	svc, err := Open(Config{Workers: 1, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2, err := Open(Config{Workers: 1, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	id2, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc2.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != want {
		t.Fatalf("warm resume digest %s, want %s", res.Digest, want)
	}
	st := svc2.Stats()
	if st.SpillHits == 0 {
		t.Fatalf("warm resume never hit the spill (stats %+v)", st)
	}
}

// TestPersistMemDiskDigestParity runs the same campaign against an
// in-memory store and a disk store: identical digests, identical
// journaled final states. The two Store implementations must be
// interchangeable.
func TestPersistMemDiskDigestParity(t *testing.T) {
	spec := fastSpec("9sym", 8)
	stores := map[string]store.Store{
		"mem":  store.NewMem(),
		"disk": openDisk(t, t.TempDir()),
	}
	digests := map[string]string{}
	for name, st := range stores {
		svc, err := Open(Config{Workers: 1, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		id, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		digests[name] = res.Digest
		svc.Close()
	}
	if digests["mem"] != digests["disk"] {
		t.Fatalf("mem digest %s != disk digest %s", digests["mem"], digests["disk"])
	}
}

// TestPersistCancelSurvivesRestart pins the shutdown contract: an
// explicit Cancel is durable, while campaigns merely queued at Close
// come back requeued.
func TestPersistCancelSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{Workers: -1, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	// Workers < 0 keeps everything queued so the test controls fates.
	canceled, err := svc.Submit(fastSpec("9sym", 9))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := svc.Submit(fastSpec("styr", 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(canceled); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2, err := Open(Config{Workers: -1, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if st, _ := svc2.Status(canceled); st.State != StateCanceled {
		t.Fatalf("canceled campaign restored as %s", st.State)
	}
	if st, _ := svc2.Status(kept); st.State != StateQueued {
		t.Fatalf("queued campaign restored as %s, want requeued", st.State)
	}
}

// failingStore is a MemStore whose journal appends always fail — the
// degraded-disk path (disk full, sync errors). Regression guard for a
// self-deadlock where counting the append error retook s.mu while
// Submit's caller held it, wedging the whole API.
type failingStore struct{ *store.MemStore }

func (failingStore) Append(store.Record) (uint64, error) {
	return 0, fmt.Errorf("injected journal failure")
}

func TestJournalErrorDoesNotDeadlockSubmit(t *testing.T) {
	svc, err := Open(Config{Workers: 1, Store: failingStore{store.NewMem()}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	type sub struct {
		id  string
		err error
	}
	ch := make(chan sub, 1)
	go func() {
		id, serr := svc.Submit(fastSpec("9sym", 1))
		ch <- sub{id, serr}
	}()
	var got sub
	select {
	case got = <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("Submit deadlocked on a failing journal")
	}
	if got.err != nil {
		t.Fatalf("Submit on a degraded store must still accept: %v", got.err)
	}
	// The campaign still runs to completion, and the API stays live.
	if _, err := svc.Wait(context.Background(), got.id); err != nil {
		t.Fatal(err)
	}
	if errs := svc.Stats().JournalErrors; errs == 0 {
		t.Fatal("JournalErrors = 0, want the failed appends counted")
	}
}

// TestPersistFailsRequeuedSpecOverCeiling restarts on a journal holding a
// submitted campaign whose spec no longer validates. Requeueing it would
// crash every restart; it must come back failed, with the failure
// journaled, while the daemon serves new work.
func TestPersistFailsRequeuedSpecOverCeiling(t *testing.T) {
	mem := store.NewMem()
	poison := []byte(`{"design":"9sym","kind":"debug","seed":1,"words":1152921504606846976,"cycles":4}`)
	if _, err := mem.Append(store.Record{Kind: store.KindSubmit, ID: "c000001", Spec: poison}); err != nil {
		t.Fatal(err)
	}
	svc, err := Open(Config{Workers: 1, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st, err := svc.Status("c000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "words") {
		t.Fatalf("poison spec restored as %s (%q), want failed naming words", st.State, st.Error)
	}
	rec, err := mem.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if cs := rec.Campaigns[0]; cs.State != store.KindFailed {
		t.Fatalf("journaled state %q, want failed", cs.State)
	}
	if svc.Stats().Recovered != 0 {
		t.Fatal("poison spec was requeued")
	}
	id, err := svc.Submit(fastSpec("9sym", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
}

// TestOpenIgnoresLegacyTraceBlobs opens a data directory whose journal
// indexes a golden-trace blob, as older daemons spilled them: the
// service opens, runs a campaign to the reference digest, and journals
// no trace blob of its own.
func TestOpenIgnoresLegacyTraceBlobs(t *testing.T) {
	spec := fastSpec("9sym", 9)
	want := runToDigest(t, spec)

	dir := t.TempDir()
	st := openDisk(t, dir)
	dig, err := st.PutBlob("trace", []byte("not a gob stream"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := "trace/0123456789abcdef/0123456789abcdef"
	if _, err := st.Append(store.Record{Kind: store.KindBlob, ID: legacy, Blob: dig, BlobKind: "trace"}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	svc, err := Open(Config{Workers: 1, Store: openDisk(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if res.Digest != want {
		t.Fatalf("digest %s, want %s", res.Digest, want)
	}
	rec, err := openDisk(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	for blobID, ref := range rec.Blobs {
		if ref.Kind == "trace" && blobID != legacy {
			t.Fatalf("journaled a new trace blob %s", blobID)
		}
	}
}
