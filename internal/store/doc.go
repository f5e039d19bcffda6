// Package store is the durability layer behind the campaign service: a
// campaign journal plus a content-addressed artifact blob store, behind
// one Store interface with two implementations.
//
// MemStore keeps everything in process memory and reproduces the
// pre-persistence service behavior exactly — a restart loses the world.
// DiskStore makes the service crash-safe: every campaign lifecycle
// transition (submit, start, done/failed/canceled, requeue) is one
// checksummed record appended to a segment-rotated journal and fsynced on
// the record boundary before Append returns, and derived artifacts (the
// service spills mapped golden netlists) go into content-addressed blob
// files whose digests are committed to the same journal. Opening
// truncates a torn tail left by a crash mid-append (a prefix of a record
// at the end of the last segment) and rejects genuine corruption (CRC or
// sequence breaks) loudly; Recover re-reads the journal from disk — a
// DiskStore holds no records in memory — and folds the record stream
// into per-campaign final states so the service can requeue everything
// that was queued or running when the process died.
// Every pipeline stage downstream of a Spec is deterministic, so a
// requeued campaign re-runs to a bit-identical result digest.
package store
