package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/store"
)

// Durable campaign state. When Config.Store is set the service journals
// every campaign lifecycle transition (submit, start, done/failed/
// canceled) as one fsynced record, spills each design's mapped golden
// netlist into the store's content-addressed blob area, and Open replays
// the journal on startup:
// terminal campaigns come back queryable, queued and running campaigns
// are requeued and re-executed. Because every Result field that enters
// Digest is deterministic for a Spec, a requeued campaign's digest is
// bit-identical to what the interrupted run would have produced — the
// crash tests in persist_test.go hold the service to that.
//
// Shutdown semantics: a graceful Close cancels running campaigns (the
// cancellation is journaled, so they stay canceled), while campaigns
// still queued are deliberately NOT journaled as canceled — a restart
// picks them up again, which is what a durable queue owes its clients.

// Open starts a service like New and, when cfg.Store is set, restores
// journaled state from it first. The service takes ownership of the
// store: Close closes it after the workers drain.
func Open(cfg Config) (*Service, error) {
	s := newService(cfg)
	if s.store != nil {
		if err := s.restore(); err != nil {
			return nil, fmt.Errorf("service: restore: %w", err)
		}
	}
	s.startWorkers()
	return s, nil
}

// journal appends one lifecycle record, stamping the wall clock. Append
// errors must not take down a running campaign, so they are counted and
// surfaced through Stats instead of propagated. The counter is atomic —
// journal must stay safe to call whether or not the caller holds s.mu,
// and on whichever side of it the failure happens.
func (s *Service) journal(rec store.Record) {
	if s.store == nil {
		return
	}
	rec.TimeUs = time.Now().UnixMicro()
	if _, err := s.store.Append(rec); err != nil {
		s.journalErrs.Add(1)
	}
}

// journalSubmit records a freshly validated submission; the defaulted
// spec is marshalled so recovery re-runs exactly what was accepted.
func (s *Service) journalSubmit(id string, spec Spec) {
	if s.store == nil {
		return
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		s.journalErrs.Add(1)
		return
	}
	s.journal(store.Record{Kind: store.KindSubmit, ID: id, Spec: specJSON})
}

// journalFinish records a campaign's terminal transition.
func (s *Service) journalFinish(id string, res *Result, err error) {
	if s.store == nil {
		return
	}
	switch {
	case err == nil:
		resJSON, merr := json.Marshal(res)
		if merr != nil {
			s.journalErrs.Add(1)
			return
		}
		s.journal(store.Record{Kind: store.KindDone, ID: id, Result: resJSON})
	case errors.Is(err, context.Canceled):
		s.journal(store.Record{Kind: store.KindCanceled, ID: id, Error: err.Error()})
	default:
		s.journal(store.Record{Kind: store.KindFailed, ID: id, Error: err.Error()})
	}
}

// parseCampaignSeq recovers the submission sequence from a "c%06d" ID so
// restored campaigns keep their FIFO position and new submissions resume
// the ID chain past them.
func parseCampaignSeq(id string) int64 {
	if len(id) < 2 || id[0] != 'c' {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// restore replays the journal: terminal campaigns become queryable
// records, queued/running campaigns are requeued (with a journaled
// requeue record and a "resume" queue-wait span replacing the usual
// "queue" one) unless their spec no longer validates, which fails them.
// Runs before the workers start, so no locking is needed.
func (s *Service) restore() error {
	begin := time.Now()
	rec, err := s.store.Recover()
	if err != nil {
		return err
	}
	s.blobIdx = rec.Blobs
	var maxSeq int64
	for _, cs := range rec.Campaigns {
		var spec Spec
		if err := json.Unmarshal(cs.Spec, &spec); err != nil {
			s.journalErrs.Add(1) // unreadable spec: the record is lost, not the daemon
			continue
		}
		seq := parseCampaignSeq(cs.ID)
		if seq > maxSeq {
			maxSeq = seq
		}
		c := &campaign{
			id:     cs.ID,
			spec:   spec,
			seq:    seq,
			subs:   make(map[chan Event]struct{}),
			done:   make(chan struct{}),
			queued: time.UnixMicro(cs.SubmitUs),
		}
		s.byKind[spec.Kind]++
		s.byID[c.id] = c
		s.order = append(s.order, c.id)
		if !cs.Terminal() {
			// A spec that no longer validates would crash or pin a worker
			// on every restart: fail it instead of requeueing it.
			if err := spec.Validate(); err != nil {
				cs.State, cs.Error, cs.FinishUs = "failed", err.Error(), time.Now().UnixMicro()
				s.journal(store.Record{Kind: store.KindFailed, ID: c.id, Error: cs.Error})
			}
		}
		switch cs.State {
		case "done":
			c.state = StateDone
			if len(cs.Result) > 0 {
				var r Result
				if err := json.Unmarshal(cs.Result, &r); err == nil {
					c.result = &r
				}
			}
			c.finished = time.UnixMicro(cs.FinishUs)
			c.events = append(c.events, Event{Seq: 1, Stage: "recover", Msg: "restored from journal (done)"})
			close(c.done)
			s.done++
		case "failed":
			c.state = StateFailed
			c.err = errors.New(cs.Error)
			c.finished = time.UnixMicro(cs.FinishUs)
			c.events = append(c.events, Event{Seq: 1, Stage: "recover", Msg: "restored from journal (failed)"})
			close(c.done)
			s.failed++
		case "canceled":
			c.state = StateCanceled
			c.err = context.Canceled
			c.finished = time.UnixMicro(cs.FinishUs)
			c.events = append(c.events, Event{Seq: 1, Stage: "recover", Msg: "restored from journal (canceled)"})
			close(c.done)
			s.cancels++
		default: // queued or running: back into the queue
			c.state = StateQueued
			if s.reg != nil {
				c.trace = obs.NewTrace(c.id, spec.Design, spec.Kind, s.reg)
				c.qspan = c.trace.Start(obs.StageResume)
			}
			c.events = append(c.events, Event{Seq: 1, Stage: "recover",
				Msg: fmt.Sprintf("requeued after restart (was %s)", cs.State)})
			heap.Push(&s.queue, queueItem{c: c})
			s.reg.Gauge("queue_depth").Add(1)
			s.recovered++
			s.journal(store.Record{Kind: store.KindRequeue, ID: c.id})
		}
	}
	if maxSeq > s.nextSeq {
		s.nextSeq = maxSeq
	}
	s.reg.Histogram("stage." + obs.StageRecover).Observe(time.Since(begin))
	return nil
}

// ------------------------------------------------------------ blob spill
//
// One artifact class is worth persisting: the mapped golden netlist of a
// design, which skips synth+techmap on resume. Golden replay traces are
// not spilled — replaying one costs less than reading, re-hashing and
// decoding its blob, and every new trace would cost a blob and a journal
// fsync. The netlist is a pure function of its key, so a spill is an
// optimization only: every load failure falls back to rebuilding. It is
// encoded exactly (netlist.MarshalBinary: every cell and net keeps its
// ID), which is what keeps resumed campaigns digest-identical to cold
// ones. Blob records an older data directory holds stay in the index:
// trace/… entries are never read, and a netlist spilled as BLIF fails to
// decode and falls back to synthesis.

func netlistBlobID(design string) string { return "netlist/" + design }

func (s *Service) blobRef(id string) (store.BlobRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.blobIdx[id]
	return ref, ok
}

func (s *Service) noteSpill(hit bool) {
	s.mu.Lock()
	if hit {
		s.spillHits++
	} else {
		s.spillMisses++
	}
	s.mu.Unlock()
}

func (s *Service) putSpill(id, kind string, data []byte) {
	dig, err := s.store.PutBlob(kind, data)
	if err != nil {
		s.journalErrs.Add(1)
		return
	}
	s.mu.Lock()
	s.blobIdx[id] = store.BlobRef{Kind: kind, Digest: dig}
	s.mu.Unlock()
	s.journal(store.Record{Kind: store.KindBlob, ID: id, Blob: dig, BlobKind: kind})
}

// spillNetlist persists a mapped netlist in its exact binary encoding, so
// a resumed campaign injects its design error into the same cells and
// nets, in the same order, as a cold one.
func (s *Service) spillNetlist(design string, nl *netlist.Netlist) {
	if s.store == nil {
		return
	}
	data, err := nl.MarshalBinary()
	if err != nil {
		return
	}
	s.putSpill(netlistBlobID(design), "netlist", data)
}

// loadSpilledNetlist rebuilds a mapped netlist from its spilled encoding.
// The store re-hashes blob content, and decoding re-checks the netlist's
// structural invariants; any failure falls back to synthesis.
func (s *Service) loadSpilledNetlist(design string) (*netlist.Netlist, bool) {
	if s.store == nil {
		return nil, false
	}
	ref, ok := s.blobRef(netlistBlobID(design))
	if !ok {
		s.noteSpill(false)
		return nil, false
	}
	data, err := s.store.GetBlob(ref.Kind, ref.Digest)
	if err != nil {
		s.noteSpill(false)
		return nil, false
	}
	nl := new(netlist.Netlist)
	if err := nl.UnmarshalBinary(data); err != nil {
		s.noteSpill(false)
		return nil, false
	}
	s.noteSpill(true)
	return nl, true
}
