package parquet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/fsys"
)

// projectionsFor returns the column projections exercised for a quickSchemas
// entry: the full row, plus single columns, reordered columns, and nested
// struct paths where the schema has them.
func projectionsFor(schemaIdx int) [][]string {
	switch schemaIdx {
	case 0: // a BIGINT
		return [][]string{nil, {"a"}}
	case 1: // a DOUBLE, b VARCHAR
		return [][]string{nil, {"b"}, {"b", "a"}}
	case 5: // s ROW(x BIGINT, y ARRAY(ROW(z VARCHAR)))
		return [][]string{nil, {"s.x"}}
	case 6: // mix ROW(tags ARRAY(VARCHAR), inner ROW(v DOUBLE)), flag BOOLEAN
		return [][]string{nil, {"flag"}, {"mix.inner.v"}, {"mix.inner.v", "flag"}}
	default: // single nested column (array / map / deep array)
		return [][]string{nil}
	}
}

// TestReaderEquivalence is the legacy-vs-columnar oracle: for generated
// nested datasets — nulls, arrays, maps, structs, repeated fields — written
// by both writers under every codec, the brand-new optimized reader and the
// legacy record-assembly reader must return identical rows for identical
// projections. Any divergence is a correctness bug in one of them.
func TestReaderEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		for si, sc := range quickSchemas {
			rng := rand.New(rand.NewSource(seed*1000 + int64(si)))
			schema, err := NewSchema(sc.names, sc.types)
			if err != nil {
				t.Fatalf("schema %d: %v", si, err)
			}
			nRows := rng.Intn(150) + 1
			pb := block.NewPageBuilder(sc.types)
			for i := 0; i < nRows; i++ {
				row := make([]any, len(sc.types))
				for j, ct := range sc.types {
					row[j] = randomValue(rng, ct, 3)
				}
				pb.AppendRow(row)
			}
			page := pb.Build()
			codec := []Codec{CodecNone, CodecSnappy, CodecGzip}[int(seed)%3]
			opts := WriterOptions{Codec: codec, RowGroupRows: rng.Intn(40) + 1}

			for _, native := range []bool{true, false} {
				var buf bytes.Buffer
				var pw interface {
					WritePage(*block.Page) error
					Close() error
				}
				if native {
					pw, err = NewNativeWriter(&buf, schema, opts)
				} else {
					pw, err = NewLegacyWriter(&buf, schema, opts)
				}
				if err != nil {
					t.Fatalf("writer (native=%v): %v", native, err)
				}
				if err := pw.WritePage(page); err != nil {
					t.Fatalf("write (native=%v): %v", native, err)
				}
				if err := pw.Close(); err != nil {
					t.Fatalf("close (native=%v): %v", native, err)
				}
				file := &fsys.BytesFile{Data: buf.Bytes()}

				for _, proj := range projectionsFor(si) {
					legacyR, err := NewLegacyReader(file, proj)
					if err != nil {
						t.Fatalf("seed %d schema %d proj %v: legacy reader: %v", seed, si, proj, err)
					}
					want := normalizeRows(drainReader(t, legacyR.Next))
					// Every optimization off in turn, and over every state of
					// the chunk cache the I/O plan can meet: none, cold, warm
					// (the second pass over one cache), and one too small to
					// hold a row group, where hits and misses mix per chunk.
					for toggle, opts := range readerToggles(proj) {
						for _, cc := range []ChunkCache{nil, cache.NewChunkCache(1 << 20), cache.NewChunkCache(16 * 48)} {
							for pass := 0; pass < 2; pass++ {
								opts.Chunks, opts.Path = cc, "/t/part-0"
								newR, err := NewReader(file, opts)
								if err != nil {
									t.Fatalf("seed %d schema %d proj %v: new reader: %v", seed, si, proj, err)
								}
								if !reflect.DeepEqual(newR.OutputTypes(), legacyR.OutputTypes()) {
									t.Fatalf("seed %d schema %d proj %v: output types differ:\nnew    %v\nlegacy %v",
										seed, si, proj, newR.OutputTypes(), legacyR.OutputTypes())
								}
								got := normalizeRows(drainReader(t, newR.Next))
								if err := newR.Close(); err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("seed %d schema %d native=%v proj %v toggle %d cache %v pass %d: readers disagree over %d rows:\nnew    %v\nlegacy %v",
										seed, si, native, proj, toggle, cc != nil, pass, nRows, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// readerToggles returns the production configuration followed by each
// optimization switched off on its own.
func readerToggles(proj []string) []ReaderOptions {
	all := AllOptimizations(proj, nil)
	out := []ReaderOptions{all, all, all, all, all, all}
	out[1].ColumnPruning = false
	out[2].PredicatePushdown = false
	out[3].DictionaryPushdown = false
	out[4].LazyReads = false
	out[5].Vectorized = false
	return out
}
