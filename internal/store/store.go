package store

import (
	"encoding/json"
	"fmt"
)

// Store is the persistence contract of the campaign service: an
// append-only journal of lifecycle records plus a content-addressed blob
// store for spilled artifacts. Implementations are safe for concurrent
// use.
type Store interface {
	// Append assigns the next sequence number, durably records rec and
	// returns the sequence. The record is recoverable when Append returns.
	Append(rec Record) (uint64, error)
	// Recover folds every record seen so far (including a prior process's
	// journal for durable stores) into per-campaign final states.
	Recover() (*Recovery, error)
	// PutBlob stores content-addressed bytes under a kind namespace and
	// returns the content digest (sha256 hex). Storing identical content
	// twice is a cheap no-op.
	PutBlob(kind string, data []byte) (string, error)
	// GetBlob returns the bytes for a digest, verifying content integrity;
	// a missing blob or a digest mismatch is an error.
	GetBlob(kind, digest string) ([]byte, error)
	// Stats snapshots journal and blob counters.
	Stats() Stats
	// Close releases resources; Append after Close errors.
	Close() error
}

// CampaignState is one campaign's folded journal outcome.
type CampaignState struct {
	ID   string          `json:"id"`
	Spec json.RawMessage `json:"spec"`
	// State is the last lifecycle transition: "queued" (submit/requeue
	// without start), "running" (started, never finished), or the terminal
	// "done"/"failed"/"canceled".
	State  string          `json:"state"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// SubmitUs and FinishUs are the journal timestamps of the submit and
	// terminal records (microseconds since the Unix epoch; 0 if absent).
	SubmitUs int64 `json:"submit_us,omitempty"`
	FinishUs int64 `json:"finish_us,omitempty"`
}

// Terminal reports whether the folded state is final.
func (cs *CampaignState) Terminal() bool {
	return cs.State == "done" || cs.State == "failed" || cs.State == "canceled"
}

// BlobRef names one spilled artifact in the journal's blob index.
type BlobRef struct {
	Kind   string `json:"kind"`
	Digest string `json:"digest"`
}

// Recovery is the folded journal: the inputs a restarting service needs
// to rebuild its world.
type Recovery struct {
	// Campaigns in submit order. Non-terminal entries (queued, running)
	// are the crash casualties the service must requeue.
	Campaigns []CampaignState
	// Blobs maps logical artifact names to their content-addressed blobs.
	Blobs map[string]BlobRef
	// Records is the number of valid journal records folded; MaxSeq the
	// highest sequence seen.
	Records int
	MaxSeq  uint64
	// TornBytes counts bytes dropped from a torn tail at open (disk
	// stores only); TornRecords the incomplete records discarded (0 or 1
	// per crash).
	TornBytes   int64
	TornRecords int
}

// Stats counts store activity since open.
type Stats struct {
	Records      int   `json:"records"`
	Appends      int64 `json:"appends"`
	JournalBytes int64 `json:"journal_bytes"`
	Segments     int   `json:"segments"`
	TornBytes    int64 `json:"torn_bytes,omitempty"`
	BlobPuts     int64 `json:"blob_puts"`
	BlobGets     int64 `json:"blob_gets"`
	BlobBytes    int64 `json:"blob_bytes"`
	Blobs        int   `json:"blobs"`
}

// Fold reduces a record stream to the recovery view. Records must be in
// journal order; unknown kinds are ignored (forward compatibility), and
// transitions for never-submitted campaigns are tolerated (their submit
// may have been truncated with a torn tail — the campaign is simply
// unrecoverable and dropped).
func Fold(recs []Record) *Recovery {
	rec := &Recovery{Blobs: make(map[string]BlobRef)}
	byID := make(map[string]int)
	for i := range recs {
		r := &recs[i]
		rec.Records++
		if r.Seq > rec.MaxSeq {
			rec.MaxSeq = r.Seq
		}
		switch r.Kind {
		case KindSubmit:
			if _, dup := byID[r.ID]; dup {
				continue // duplicate submit: first wins
			}
			byID[r.ID] = len(rec.Campaigns)
			rec.Campaigns = append(rec.Campaigns, CampaignState{
				ID: r.ID, Spec: r.Spec, State: "queued", SubmitUs: r.TimeUs,
			})
		case KindStart:
			if i, ok := byID[r.ID]; ok && !rec.Campaigns[i].Terminal() {
				rec.Campaigns[i].State = "running"
			}
		case KindRequeue:
			if i, ok := byID[r.ID]; ok && !rec.Campaigns[i].Terminal() {
				rec.Campaigns[i].State = "queued"
			}
		case KindDone, KindFailed, KindCanceled:
			if i, ok := byID[r.ID]; ok {
				cs := &rec.Campaigns[i]
				cs.State = r.Kind
				cs.Result = r.Result
				cs.Error = r.Error
				cs.FinishUs = r.TimeUs
			}
		case KindBlob:
			rec.Blobs[r.ID] = BlobRef{Kind: r.BlobKind, Digest: r.Blob}
		}
	}
	return rec
}

// validateAppend rejects records no implementation should journal.
func validateAppend(rec Record) error {
	switch rec.Kind {
	case KindSubmit, KindStart, KindDone, KindFailed, KindCanceled, KindRequeue, KindBlob:
	default:
		return fmt.Errorf("store: append of unknown record kind %q", rec.Kind)
	}
	if rec.Kind != KindBlob && rec.ID == "" {
		return fmt.Errorf("store: append of %s record without campaign id", rec.Kind)
	}
	return nil
}
