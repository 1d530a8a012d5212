package rel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// chunkCache is the process-wide bounded-memory manager for cache-
// managed chunk slots (slots backed by a ChunkSource). It is global for
// the same reason genCounter is: relation versions sharing slots span
// databases and sessions, and the memory quota is a property of the
// process, not of any one table.
//
// Accounting discipline: a fault evicts FIRST and inserts after, under
// one lock hold, so resident never exceeds the quota at any observable
// instant (the sole exception — a single chunk larger than the whole
// quota — still loads, because the cache must make progress; callers
// pick quotas comfortably above the chunk size). Recency is fault
// order: resident-chunk hits in colStore.chunk bypass the cache
// entirely via the slot's atomic pointer, keeping reads lock-free.
//
// Pinned slots (freshly appended or updated chunks, which have no
// source to refault from) are invisible to the cache: they are live
// table data, not reconstructable cache state.
type chunkCache struct {
	mu       sync.Mutex
	quota    int64 // 0 = unbounded
	resident int64
	peak     int64
	pressure bool // inside a quota crossing; gates once-per-crossing warnings

	head, tail *chunkSlot // LRU list: head = most recently faulted

	loads, evictions, warnings int64
}

// DefaultMemoryQuota bounds cache-managed chunk memory out of the box.
// Without a bound the LRU list would keep every faulted chunk alive for
// the life of the process — including chunks of segment-backed relations
// long since dropped — so "unbounded" (quota 0) is an explicit opt-in.
const DefaultMemoryQuota int64 = 256 << 20

var globalChunkCache = newChunkCacheState()

// quotaValue mirrors the quota for lock-free reads in stats.
var quotaValue atomic.Int64

func newChunkCacheState() *chunkCache {
	quotaValue.Store(DefaultMemoryQuota)
	return &chunkCache{quota: DefaultMemoryQuota}
}

// SetMemoryQuota bounds the bytes of cache-managed chunk storage kept
// resident; 0 removes the bound. Lowering the quota evicts immediately.
func SetMemoryQuota(bytes int64) {
	cc := globalChunkCache
	cc.mu.Lock()
	cc.quota = bytes
	quotaValue.Store(bytes)
	cc.pressure = false
	if bytes > 0 && cc.resident > bytes {
		cc.evictLocked(bytes, nil)
	}
	cc.mu.Unlock()
}

// MemoryQuota returns the current quota (0 = unbounded).
func MemoryQuota() int64 { return quotaValue.Load() }

// CacheStats is a snapshot of the chunk cache's accounting, the
// authority the bounded-memory tests and bench gates assert against
// (obs counters mirror it for the telemetry endpoints).
type CacheStats struct {
	Quota         int64
	Resident      int64
	Peak          int64 // high-water resident since the last reset
	Loads         int64
	Evictions     int64
	QuotaWarnings int64
}

// ChunkCacheStats returns current cache accounting.
func ChunkCacheStats() CacheStats {
	cc := globalChunkCache
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return CacheStats{
		Quota:         cc.quota,
		Resident:      cc.resident,
		Peak:          cc.peak,
		Loads:         cc.loads,
		Evictions:     cc.evictions,
		QuotaWarnings: cc.warnings,
	}
}

// ResetChunkCacheStats zeroes the load/eviction/warning counters and
// re-bases the peak at the current resident size.
func ResetChunkCacheStats() {
	cc := globalChunkCache
	cc.mu.Lock()
	cc.loads, cc.evictions, cc.warnings = 0, 0, 0
	cc.peak = cc.resident
	cc.pressure = false
	cc.mu.Unlock()
}

// DropResidentChunks evicts every cache-managed chunk, forcing the next
// reads to refault from their sources. Tests use it to prove reloads
// are byte-identical; it is also a reasonable response to an external
// memory-pressure signal.
func DropResidentChunks() {
	cc := globalChunkCache
	cc.mu.Lock()
	cc.evictLocked(0, nil)
	cc.mu.Unlock()
}

// fault loads the slot's chunk from its source, charging the quota and
// evicting colder chunks as needed. Concurrent faults of one slot may
// both read from the source, but only the first charges the cache; the
// loser adopts the winner's chunk.
func (cc *chunkCache) fault(s *chunkSlot) (*Chunk, error) {
	if s.src == nil {
		return nil, fmt.Errorf("rel: pinned chunk slot has no resident chunk")
	}
	c, err := s.src.ReadChunk(s.idx)
	if err != nil {
		return nil, fmt.Errorf("rel: loading chunk %d: %w", s.idx, err)
	}
	bytes := c.Bytes()

	cc.mu.Lock()
	if cur := s.res.Load(); cur != nil {
		cc.mu.Unlock()
		return cur, nil
	}
	if cc.quota > 0 && cc.resident+bytes > cc.quota {
		if !cc.pressure {
			cc.pressure = true
			cc.warnings++
			obs.Inc(obs.RelQuotaWarnings)
		}
		cc.evictLocked(cc.quota-bytes, s)
	} else {
		cc.pressure = false
	}
	s.res.Store(c)
	s.resBytes = bytes
	cc.pushLocked(s)
	cc.resident += bytes
	if cc.resident > cc.peak {
		cc.peak = cc.resident
	}
	cc.loads++
	obs.Inc(obs.RelChunkLoads)
	obs.Add(obs.RelResidentBytes, bytes)
	cc.mu.Unlock()
	return c, nil
}

// evictLocked drops least-recently-faulted slots (skipping keep) until
// resident ≤ target. A negative target evicts everything evictable.
func (cc *chunkCache) evictLocked(target int64, keep *chunkSlot) {
	s := cc.tail
	for s != nil && cc.resident > target {
		prev := s.lruPrev
		if s != keep {
			s.res.Store(nil)
			cc.resident -= s.resBytes
			cc.evictions++
			obs.Inc(obs.RelChunkEvictions)
			obs.Add(obs.RelResidentBytes, -s.resBytes)
			cc.removeLocked(s)
			s.resBytes = 0
		}
		s = prev
	}
}

// pushLocked inserts s at the head (most recent) of the LRU list.
func (cc *chunkCache) pushLocked(s *chunkSlot) {
	if s.inCache {
		cc.removeLocked(s)
	}
	s.inCache = true
	s.lruPrev = nil
	s.lruNext = cc.head
	if cc.head != nil {
		cc.head.lruPrev = s
	}
	cc.head = s
	if cc.tail == nil {
		cc.tail = s
	}
}

// removeLocked unlinks s from the LRU list.
func (cc *chunkCache) removeLocked(s *chunkSlot) {
	if !s.inCache {
		return
	}
	if s.lruPrev != nil {
		s.lruPrev.lruNext = s.lruNext
	} else {
		cc.head = s.lruNext
	}
	if s.lruNext != nil {
		s.lruNext.lruPrev = s.lruPrev
	} else {
		cc.tail = s.lruPrev
	}
	s.lruPrev, s.lruNext = nil, nil
	s.inCache = false
}
