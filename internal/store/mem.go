package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// MemStore is the in-memory Store: the exact pre-persistence service
// behavior (nothing survives the process), behind the same interface so
// the service and the differential tests can swap it against DiskStore
// record for record. Its records are its persistence, so it keeps them.
type MemStore struct {
	mu      sync.Mutex
	recs    []Record
	blobs   map[string][]byte // "kind/digest" → content
	nextSeq uint64
	stats   Stats
	closed  bool
}

// NewMem builds an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

// Append implements Store.
func (m *MemStore) Append(rec Record) (uint64, error) {
	if err := validateAppend(rec); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("store: append to closed store")
	}
	m.nextSeq++
	rec.Seq = m.nextSeq
	if rec.TimeUs == 0 {
		rec.TimeUs = time.Now().UnixMicro()
	}
	// Size accounting mirrors the disk framing so mem/disk stats compare.
	buf, err := EncodeRecord(rec)
	if err != nil {
		m.nextSeq--
		return 0, err
	}
	m.recs = append(m.recs, rec)
	m.stats.Appends++
	m.stats.JournalBytes += int64(len(buf))
	return rec.Seq, nil
}

// Recover implements Store.
func (m *MemStore) Recover() (*Recovery, error) {
	m.mu.Lock()
	recs := append([]Record(nil), m.recs...)
	m.mu.Unlock()
	return Fold(recs), nil
}

// PutBlob implements Store.
func (m *MemStore) PutBlob(kind string, data []byte) (string, error) {
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])
	key := kind + "/" + digest
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", fmt.Errorf("store: put blob to closed store")
	}
	m.stats.BlobPuts++
	if _, ok := m.blobs[key]; !ok {
		m.blobs[key] = append([]byte(nil), data...)
		m.stats.BlobBytes += int64(len(data))
		m.stats.Blobs++
	}
	return digest, nil
}

// GetBlob implements Store.
func (m *MemStore) GetBlob(kind, digest string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.BlobGets++
	data, ok := m.blobs[kind+"/"+digest]
	if !ok {
		return nil, fmt.Errorf("store: no blob %s/%s", kind, digest)
	}
	return append([]byte(nil), data...), nil
}

// Stats implements Store.
func (m *MemStore) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Records = len(m.recs)
	return st
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}
