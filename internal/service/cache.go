package service

import (
	"container/list"
	"fmt"
	"sync"
)

// Cache is the content-addressed artifact store behind the campaign
// service: mapped netlists, compiled simulator programs, pristine layouts
// and golden reference traces, keyed by netlist fingerprint plus build
// parameters. It combines
//
//   - singleflight deduplication: concurrent GetOrBuild calls for the same
//     key run the builder once and share the result, so N campaigns
//     submitted together on one design pay synth/place/compile once;
//   - LRU eviction under two budgets, entry count and total bytes
//     (artifact sizes are caller-supplied estimates).
//
// Values are shared between callers and must be treated as immutable;
// campaigns clone mutable artifacts (netlists, layouts) after the get.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	entries    map[string]*list.Element // of *cacheEntry
	lru        *list.List               // front = most recent
	inflight   map[string]*flight

	hits      int64
	misses    int64
	evictions int64
	dedups    int64 // calls that latched onto an in-flight build
}

type cacheEntry struct {
	key   string
	val   any
	bytes int64
}

// flight is one in-progress build; waiters block on done.
type flight struct {
	done  chan struct{}
	val   any
	bytes int64
	err   error
}

// NewCache builds a cache bounded by maxEntries artifacts and maxBytes
// estimated total size. Zero or negative budgets mean unbounded in that
// dimension.
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
		inflight:   make(map[string]*flight),
	}
}

// GetOrBuild returns the artifact under key, building it at most once per
// residency. build returns the artifact and its estimated size in bytes.
// hit reports whether the value came from the cache (including latching
// onto another caller's in-flight build). Build errors are returned to
// every waiter and nothing is cached.
func (c *Cache) GetOrBuild(key string, build func() (any, int64, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		val := el.Value.(*cacheEntry).val // Put rewrites val under c.mu
		c.mu.Unlock()
		return val, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.dedups++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		return f.val, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("service: artifact build for %q panicked: %v", key, r)
			}
		}()
		f.val, f.bytes, f.err = build()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insertLocked(key, f.val, f.bytes)
	}
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, false, f.err
	}
	return f.val, false, nil
}

// Get returns a cached artifact without building.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).val, true
}

// Put inserts an artifact directly (used for traces recorded as a side
// effect of a replay rather than built on demand).
func (c *Cache) Put(key string, val any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += bytes - e.bytes
		e.val, e.bytes = val, bytes
		c.lru.MoveToFront(el)
		c.evictLocked()
		return
	}
	c.insertLocked(key, val, bytes)
}

func (c *Cache) insertLocked(key string, val any, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val, bytes: bytes})
	c.bytes += bytes
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until both budgets hold.
// A single artifact larger than the byte budget is evicted immediately —
// it would otherwise pin the whole cache.
func (c *Cache) evictLocked() {
	for (c.maxEntries > 0 && c.lru.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 0) {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of cache behavior.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Dedups counts GetOrBuild calls that latched onto a concurrent
	// in-flight build of the same key (singleflight saves).
	Dedups int64 `json:"dedups"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Dedups:    c.dedups,
	}
}
