package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"prestolite/internal/fault"
)

// residentBytes sums the sizes of the entries c holds, walking them under
// its lock: what Metrics.Bytes must say when no operation is in flight.
func residentBytes[K comparable, V any](c *LRU[K, V]) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*lruEntry[K, V]).size
	}
	return sum
}

// TestLRUConcurrentStress hammers one LRU from parallel readers and
// writers. Run under -race this is the memory-safety proof for the shared
// coordinator/worker caches; the final Len bound proves capacity is never
// exceeded regardless of interleaving.
func TestLRUConcurrentStress(t *testing.T) {
	const (
		workers = 8
		ops     = 2000
		keys    = 64
		cap     = 32
	)
	c := NewLRU[string, int](cap, time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%keys)
				if i%4 == 2 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > cap {
		t.Errorf("len %d exceeds capacity %d", c.Len(), cap)
	}
	total := c.Metrics.Hits.Load() + c.Metrics.Misses.Load()
	if total == 0 {
		t.Error("no gets recorded")
	}
}

// TestChunkCacheConcurrentStress runs parallel GetChunk/PutChunk against the
// sharded chunk cache — bodies of several sizes, files under several stamps
// as rewritten files list, a budget small enough that most puts evict — then
// checks the byte accounting is exact: the resident byte counter equals the
// sizes the shards hold, within the budget. Any drift means an eviction or a
// replaced entry leaked its size.
func TestChunkCacheConcurrentStress(t *testing.T) {
	const (
		workers = 8
		ops     = 2000
	)
	const budget = 256 << 10 // small enough to force evictions
	c := NewChunkCache[[]byte](budget)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				path := fmt.Sprintf("/warehouse/t%d/part-%d.parquet", w%2, i%40)
				stamp, col := int64(i/3%3), fmt.Sprintf("c%d", i%4)
				// A body's size is a function of its key, so a hit shows
				// whether it came back whole.
				size := 1024 * (1 + int(stamp) + i%4)
				if i%3 == 1 {
					c.PutChunk(path, stamp, col, i%8, i%16 == 1, make([]byte, size), int64(size))
				} else if b, ok := c.GetChunk(path, stamp, col, i%8, i%16 == 1); ok && len(b) != size {
					t.Errorf("corrupt body length %d, want %d", len(b), size)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var held int64
	for _, s := range c.shards {
		held += residentBytes(s)
	}
	if got := c.Metrics.Bytes.Load(); got != held || got > budget {
		t.Errorf("resident bytes counter %d, shards hold %d (budget %d)", got, held, budget)
	}
	if c.Metrics.Evictions.Load() == 0 {
		t.Error("the run evicted nothing: the budget was never under pressure")
	}
}

// TestChunkCacheBasics covers the single-threaded contract: hit after put,
// dict and data pages are distinct keys, oversized bodies bypass, and byte
// pressure evicts the least recently used chunk.
func TestChunkCacheBasics(t *testing.T) {
	c := NewChunkCache[[]byte](16 * 4096)
	body := []byte("decompressed-bytes")
	c.PutChunk("/t/f1", 7, "col", 0, false, body, int64(len(body)))
	if got, ok := c.GetChunk("/t/f1", 7, "col", 0, false); !ok || string(got) != string(body) {
		t.Fatalf("miss after put: %q %v", got, ok)
	}
	if _, ok := c.GetChunk("/t/f1", 7, "col", 0, true); ok {
		t.Error("dict page must not alias data page")
	}
	if _, ok := c.GetChunk("/t/f1", 7, "col", 1, false); ok {
		t.Error("row groups must not alias")
	}
	if _, ok := c.GetChunk("/t/f1", 8, "col", 0, false); ok {
		t.Error("the file written again (a new stamp) must not alias the old one")
	}
	// A body larger than a whole shard's budget is refused, not cached.
	huge := make([]byte, 16*4096)
	c.PutChunk("/t/huge", 7, "col", 0, false, huge, int64(len(huge)))
	if _, ok := c.GetChunk("/t/huge", 7, "col", 0, false); ok {
		t.Error("oversized body should bypass the cache")
	}
	if c.Metrics.Bypasses.Load() == 0 {
		t.Error("bypass not counted")
	}
	if n := c.Len(); n != 1 {
		t.Errorf("len %d, want 1", n)
	}
}

// TestChunkCacheEviction fills past the byte budget and checks eviction both
// happens and is counted.
func TestChunkCacheEviction(t *testing.T) {
	c := NewChunkCache[[]byte](32 * 1024)
	body := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		c.PutChunk("/t/f", 1, fmt.Sprintf("c%d", i), 0, false, body, int64(len(body)))
	}
	if c.Metrics.Bytes.Load() > 32*1024 {
		t.Errorf("resident %d bytes exceeds budget", c.Metrics.Bytes.Load())
	}
	if c.Metrics.Evictions.Load() == 0 {
		t.Error("expected evictions under byte pressure")
	}
}

// TestResultCache covers the version-stamped result cache: TTL expiry on the
// injected clock and byte-bound eviction.
func TestResultCache(t *testing.T) {
	c := NewSizedLRU[string, string](8, time.Minute, NewBudget(100))
	clk := fault.NewManualClock(time.Unix(5000, 0))
	c.SetClock(clk)

	c.PutSized("q1@v1", "rows", 10)
	if v, ok := c.Get("q1@v1"); !ok || v != "rows" {
		t.Fatalf("miss after put: %q %v", v, ok)
	}
	// A version bump is a different key — the stale entry is simply never hit.
	if _, ok := c.Get("q1@v2"); ok {
		t.Error("bumped version must miss")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := c.Get("q1@v1"); ok {
		t.Error("expired entry served")
	}
	// Byte bound: 3 entries of 40 bytes exceed 100; oldest goes.
	c.PutSized("a", "x", 40)
	c.PutSized("b", "y", 40)
	c.PutSized("c", "z", 40)
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry should be evicted by byte pressure")
	}
	if c.Metrics.Evictions.Load() == 0 {
		t.Error("eviction not counted")
	}
	if got, held := c.Metrics.Bytes.Load(), residentBytes(c); got != held || got != 80 {
		t.Errorf("resident bytes counter %d, entries hold %d, want 80", got, held)
	}
}

// TestResultCacheConcurrentStress runs parallel Get/Put under -race, with
// entries expiring on the injected clock as they go, then checks the byte
// accounting is exact.
func TestResultCacheConcurrentStress(t *testing.T) {
	c := NewSizedLRU[string, int](64, time.Minute, NewBudget(1<<20))
	clk := fault.NewManualClock(time.Unix(5000, 0))
	c.SetClock(clk)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("q%d", (w+i)%128)
				switch {
				case i%3 == 1:
					c.PutSized(k, i, int64(256*(1+i%4)))
				case i%512 == 2:
					clk.Advance(time.Minute / 2)
				default:
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, held := c.Metrics.Bytes.Load(), residentBytes(c); got != held || got > 1<<20 {
		t.Errorf("resident bytes counter %d, entries hold %d (budget %d)", got, held, 1<<20)
	}
}

// summed is an entry CheckChunks can sum.
type summed struct{ b []byte }

func (s *summed) Checksum() uint64 {
	var h uint64
	for _, c := range s.b {
		h = h*31 + uint64(c)
	}
	return h
}

// TestCheckChunksCatchesWrites: under the test hook, an entry written after
// it was put panics on its next Get, and on its eviction when no Get meets
// it first; an entry left alone does neither.
func TestCheckChunksCatchesWrites(t *testing.T) {
	defer func(on bool) { CheckChunks = on }(CheckChunks)
	CheckChunks = true
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "written after it was cached") {
				t.Errorf("%s: recovered %v", what, r)
			}
		}()
		f()
	}
	c := NewChunkCache[*summed](16 * 64)
	kept, written := &summed{[]byte("kept")}, &summed{[]byte("written")}
	c.PutChunk("/t/f", 1, "a", 0, false, kept, 32)
	c.PutChunk("/t/f", 1, "b", 0, false, written, 32)
	written.b[0] = 'W'
	if got, ok := c.GetChunk("/t/f", 1, "a", 0, false); !ok || got != kept {
		t.Fatalf("the entry left alone: %v, %v", got, ok)
	}
	mustPanic("get", func() { c.GetChunk("/t/f", 1, "b", 0, false) })

	// Fill b's shard until it evicts b, which no Get meets first.
	shard := c.shard(ChunkKey{Path: "/t/f", Stamp: 1, Column: "b"})
	mustPanic("eviction", func() {
		for i := 0; i < 1000; i++ {
			k := ChunkKey{Path: "/t/g", Stamp: 1, Column: fmt.Sprint(i)}
			if c.shard(k) == shard {
				c.Put(k, &summed{[]byte("x")}, 32)
			}
		}
	})
}
