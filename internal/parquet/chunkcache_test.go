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
// the warm pass — only the footer is touched — (c) hit/miss counters
// moving the right way, and (d) a new stamp for the same path reading cold.
func TestChunkCacheShortCircuitsReads(t *testing.T) {
	s := tripSchema(t)
	rows := tripRows()
	base := writeFile(t, s, rows, WriterOptions{RowGroupRows: 2, Codec: CodecSnappy}, true)
	cc := cache.NewChunkCache(1 << 20)

	read := func(stamp int64) ([][]any, int64) {
		f := &countingFile{BytesFile: &fsys.BytesFile{Data: base.Data}}
		opts := AllOptimizations(nil, nil)
		opts.LazyReads = false
		opts.Path, opts.Stamp = "/warehouse/trips/part-0.parquet", stamp
		opts.Chunks = cc
		r, err := NewReader(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := drainReader(t, r.Next)
		return got, f.reads.Load()
	}

	cold, coldReads := read(1)
	if !reflect.DeepEqual(normalizeRows(cold), normalizeRows(rows)) {
		t.Fatalf("cold read mismatch: %v", cold)
	}
	if cc.Metrics.Misses.Load() == 0 || cc.Len() == 0 {
		t.Fatalf("cold pass should populate the cache: misses=%d len=%d",
			cc.Metrics.Misses.Load(), cc.Len())
	}

	warm, warmReads := read(1)
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

	// The same path listed with a new stamp is another file: its chunks are
	// read from the filesystem again, never served from the old stamp's.
	rewritten, rewrittenReads := read(2)
	if !reflect.DeepEqual(normalizeRows(rewritten), normalizeRows(cold)) {
		t.Fatalf("new-stamp read mismatch")
	}
	if rewrittenReads != coldReads {
		t.Errorf("new-stamp pass did %d ReadAts, want the cold pass's %d", rewrittenReads, coldReads)
	}
}
