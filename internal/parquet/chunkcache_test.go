package parquet

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prestolite/internal/cache"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
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
	cc := cache.NewChunkCache[any](1 << 20)

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

// cachedTrips writes rows×6 columns in row groups of rgRows, uncompressed:
// id BIGINT (plain), city VARCHAR (dictionary-encoded), note VARCHAR (plain,
// every value distinct), fare DOUBLE with NULLs, n BIGINT
// (dictionary-encoded, with NULLs) and tip DOUBLE.
func cachedTrips(t *testing.T, rows, rgRows int) (*fsys.BytesFile, [][]any) {
	t.Helper()
	s, err := NewSchema([]string{"id", "city", "note", "fare", "n", "tip"},
		[]*types.Type{types.Bigint, types.Varchar, types.Varchar, types.Double, types.Bigint, types.Double})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]any, rows)
	for i := range data {
		data[i] = []any{int64(i), []string{"sf", "nyc", "la"}[i%3], fmt.Sprintf("note-%d", i), float64(i) / 4, int64(i % 5), float64(i % 9)}
		if i%4 == 1 {
			data[i][3] = nil
		}
		if i%6 == 2 {
			data[i][4] = nil
		}
	}
	return writeFile(t, s, data, WriterOptions{RowGroupRows: rgRows}, true), data
}

// recordingCache is a chunk cache that remembers what was put in it.
type recordingCache struct {
	*cache.ChunkCache[any]
	mu   sync.Mutex
	puts []recordedPut
}

type recordedPut struct {
	column string
	dict   bool
	entry  any
	size   int64
}

func (c *recordingCache) PutChunk(path string, stamp int64, column string, rowGroup int, dict bool, entry any, size int64) {
	c.mu.Lock()
	c.puts = append(c.puts, recordedPut{column, dict, entry, size})
	c.mu.Unlock()
	c.ChunkCache.PutChunk(path, stamp, column, rowGroup, dict, entry, size)
}

// TestChunkCacheHoldsDecodedChunks: the chunk cache holds what the decoder
// produced — a dictionary, or a chunk's values or ids with the levels it
// needs — each charged at its decoded size, and a data entry never carries
// its dictionary's values. A warm pass over the file's parsed footer then
// decodes and puts nothing and reads no byte: the file's bytes can be gone.
func TestChunkCacheHoldsDecodedChunks(t *testing.T) {
	f, rows := cachedTrips(t, 24, 8)
	meta, schema, err := ReadFooter(f)
	if err != nil {
		t.Fatal(err)
	}
	cc := &recordingCache{ChunkCache: cache.NewChunkCache[any](1 << 20)}
	read := func(file fsys.File) [][]any {
		opts := AllOptimizations(nil, nil)
		opts.Path, opts.Chunks = "/t/part-0", cc
		r, err := NewReaderWithFooter(file, meta, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return drainReader(t, r.Next)
	}
	if got := read(f); !reflect.DeepEqual(got, rows) {
		t.Fatalf("cold pass read %v", got)
	}
	// An entry per chunk, and one per dictionary.
	want, dicts := 0, 0
	for _, rg := range meta.RowGroups {
		for _, cm := range rg.Chunks {
			want++
			if cm.Dictionary {
				want, dicts = want+1, dicts+1
			}
		}
	}
	if len(cc.puts) != want || dicts == 0 {
		t.Fatalf("cold pass put %d entries, want %d (%d dictionaries)", len(cc.puts), want, dicts)
	}
	for _, p := range cc.puts {
		switch e := p.entry.(type) {
		case *dictionary:
			if !p.dict || p.size != e.decodedSize() {
				t.Errorf("%s: a dictionary put as dict=%v, charged %d of %d", p.column, p.dict, p.size, e.decodedSize())
			}
		case *chunkData:
			if p.dict || p.size != e.decodedSize() {
				t.Errorf("%s: a chunk put as dict=%v, charged %d of %d", p.column, p.dict, p.size, e.decodedSize())
			}
			if e.ids != nil && (e.ints != nil || e.strs != nil) {
				t.Errorf("%s: the cached chunk pins its dictionary's values", p.column)
			}
			if (e.defs == nil) != (e.present == e.entries) {
				t.Errorf("%s: %d of %d entries present, definition levels kept: %v", p.column, e.present, e.entries, e.defs != nil)
			}
		default:
			t.Errorf("%s: put a %T", p.column, e)
		}
	}
	gone := &countingFile{BytesFile: &fsys.BytesFile{Data: make([]byte, len(f.Data))}}
	puts, misses := len(cc.puts), cc.Metrics.Misses.Load()
	if got := read(gone); !reflect.DeepEqual(got, rows) {
		t.Fatalf("warm pass read %v", got)
	}
	if len(cc.puts) != puts || cc.Metrics.Misses.Load() != misses || gone.reads.Load() != 0 {
		t.Errorf("warm pass put %d entries, missed %d times and read %d times; want none of them",
			len(cc.puts)-puts, cc.Metrics.Misses.Load()-misses, gone.reads.Load())
	}
}

// TestChunkCacheSharedByConcurrentReaders: many readers of one file at once
// share its cached chunks — predicates over plain, dictionary-encoded and
// nullable leaves, lazy and eager columns, both decoders — and each reads
// the rows a reader without a cache reads. Run under -race, and with the
// cache's checksum hook (main_test.go), a reader that writes into a shared
// chunk or a block built over one fails here.
func TestChunkCacheSharedByConcurrentReaders(t *testing.T) {
	f, _ := cachedTrips(t, 120, 16)
	meta, schema, err := ReadFooter(f)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []ReaderOptions{
		AllOptimizations(nil, nil),
		AllOptimizations([]string{"note", "fare", "tip"}, []expr.Comparison{{Column: "city", Op: expr.OpEq, Values: []any{"sf"}}}),
		AllOptimizations([]string{"id", "n"}, []expr.Comparison{{Column: "fare", Op: expr.OpGt, Values: []any{7.0}}}),
		AllOptimizations([]string{"city"}, []expr.Comparison{{Column: "n", Op: expr.OpIn, Values: []any{int64(1), int64(3)}}, {Column: "id", Op: expr.OpLt, Values: []any{int64(90)}}}),
	}
	eager := shapes[1]
	eager.LazyReads, eager.Vectorized = false, false
	shapes = append(shapes, eager)
	read := func(opts ReaderOptions, cc ChunkCache) ([][]any, error) {
		opts.Path, opts.Chunks = "/t/part-0", cc
		r, err := NewReaderWithFooter(f, meta, schema, opts)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		var rows [][]any
		for {
			p, err := r.Next()
			if errors.Is(err, io.EOF) {
				return rows, nil
			}
			if err != nil {
				return nil, err
			}
			for i := 0; i < p.Count(); i++ {
				rows = append(rows, p.Row(i))
			}
		}
	}
	want := make([][][]any, len(shapes))
	for i, opts := range shapes {
		if want[i], err = read(opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	cc := cache.NewChunkCache[any](1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 6; pass++ {
				i := (g + pass) % len(shapes)
				got, err := read(shapes[i], cc)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("reader %d pass %d shape %d: %d rows, want %d", g, pass, i, len(got), len(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cc.Metrics.Hits.Load() == 0 {
		t.Error("no reader hit the cache")
	}
}

// TestChunkCacheKeepsNoFailedDecode: a chunk whose data pages or dictionary
// fail to decode is never cached — the next query reads it again instead of
// being served what did not decode — while the chunks before it are.
func TestChunkCacheKeepsNoFailedDecode(t *testing.T) {
	for _, tc := range []struct {
		column  string
		dict    bool // corrupt the dictionary page, not the data pages
		corrupt byte // the run's first byte, its entry count, becomes this
		want    string
	}{
		{"note", false, 9, "holds 9 entries"},
		{"city", true, 0x7f, "claims 127 entries"},
	} {
		f, _ := cachedTrips(t, 24, 8)
		meta, schema, err := ReadFooter(f)
		if err != nil {
			t.Fatal(err)
		}
		cm := meta.RowGroups[1].Chunk(schema.Resolve(tc.column).LeafIndex)
		off := cm.DataOffset
		if tc.dict {
			off = cm.DictOffset
		}
		f.Data[off] = tc.corrupt
		cc := cache.NewChunkCache[any](1 << 20)
		opts := AllOptimizations([]string{"id", tc.column}, nil)
		opts.LazyReads = false
		opts.Path, opts.Chunks = "/t/part-0", cc
		r, err := NewReaderWithFooter(f, meta, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatalf("%s: row group 0: %v", tc.column, err)
		}
		if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: row group 1 read %v, want %q", tc.column, err, tc.want)
		}
		r.Close()
		if _, ok := cc.GetChunk("/t/part-0", 0, tc.column, 0, false); !ok {
			t.Errorf("%s: row group 0, which decoded, is not cached", tc.column)
		}
		if _, ok := cc.GetChunk("/t/part-0", 0, tc.column, 1, tc.dict); ok {
			t.Errorf("%s: the run that failed to decode (dict=%v) is cached", tc.column, tc.dict)
		}
		if _, ok := cc.GetChunk("/t/part-0", 0, tc.column, 1, false); ok {
			t.Errorf("%s: the chunk that failed to decode is cached", tc.column)
		}
	}
}
