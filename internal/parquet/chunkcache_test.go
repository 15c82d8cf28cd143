package parquet

import (
	"reflect"
	"sync/atomic"
	"testing"

	"prestolite/internal/cache"
	"prestolite/internal/fsys"
)

// countingFile counts ReadAt calls so tests can prove the chunk cache
// short-circuits filesystem reads. The reader issues a batch's reads
// concurrently, so the count is atomic.
type countingFile struct {
	*fsys.BytesFile
	reads atomic.Int64
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.BytesFile.ReadAt(p, off)
}

// TestChunkCacheShortCircuitsReads re-reads the same file through one
// ChunkCache and asserts (a) identical rows, (b) zero chunk ReadAt calls on
// the warm pass — only the footer is touched — and (c) hit/miss counters
// moving the right way.
func TestChunkCacheShortCircuitsReads(t *testing.T) {
	s := tripSchema(t)
	rows := tripRows()
	base := writeFile(t, s, rows, WriterOptions{RowGroupRows: 2, Codec: CodecSnappy}, true)
	cc := cache.NewChunkCache(1 << 20)

	read := func() ([][]any, int64) {
		f := &countingFile{BytesFile: &fsys.BytesFile{Data: base.Data}}
		opts := AllOptimizations(nil, nil)
		opts.LazyReads = false
		opts.Path = "/warehouse/trips/part-0.parquet"
		opts.Chunks = cc
		r, err := NewReader(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := drainReader(t, r.Next)
		return got, f.reads.Load()
	}

	cold, coldReads := read()
	if !reflect.DeepEqual(normalizeRows(cold), normalizeRows(rows)) {
		t.Fatalf("cold read mismatch: %v", cold)
	}
	if cc.Metrics.Misses.Load() == 0 || cc.Len() == 0 {
		t.Fatalf("cold pass should populate the cache: misses=%d len=%d",
			cc.Metrics.Misses.Load(), cc.Len())
	}

	warm, warmReads := read()
	if !reflect.DeepEqual(normalizeRows(warm), normalizeRows(cold)) {
		t.Fatalf("warm read mismatch")
	}
	// The footer costs 2 ReadAts (tail + footer body); every chunk beyond
	// that must come from the cache.
	if warmReads != 2 {
		t.Errorf("warm pass did %d ReadAts, want 2 (footer only); cold did %d", warmReads, coldReads)
	}
	if cc.Metrics.Hits.Load() == 0 {
		t.Error("warm pass recorded no cache hits")
	}

	// Invalidation drops the file's chunks; the next read goes to disk again.
	if n := cc.InvalidatePrefix("/warehouse/trips/"); n == 0 {
		t.Fatal("invalidation dropped nothing")
	}
	inval, invalReads := read()
	if !reflect.DeepEqual(normalizeRows(inval), normalizeRows(cold)) {
		t.Fatalf("post-invalidation read mismatch")
	}
	if invalReads <= 2 {
		t.Errorf("post-invalidation pass did %d ReadAts, want chunk reads again", invalReads)
	}
}
