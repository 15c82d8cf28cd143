package parquet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
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
	t.Run("mixed dictionary", readerEquivalenceMixedDictionary)
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
						for _, cc := range []ChunkCache{nil, cache.NewChunkCache[any](1 << 20), cache.NewChunkCache[any](16 * 512)} {
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

// readerEquivalenceMixedDictionary is TestReaderEquivalence's other file:
// city and n are dictionary-encoded in the first row group and plain in the
// second (every value there distinct), both with NULLs. Read with predicates
// pushed on them, the columnar reader must return the legacy reader's rows
// that the predicates keep, under every toggle, from either writer.
func readerEquivalenceMixedDictionary(t *testing.T) {
	schema, err := NewSchema([]string{"id", "city", "n"}, []*types.Type{types.Bigint, types.Varchar, types.Bigint})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for i := 0; i < 80; i++ {
		row := []any{int64(i), []string{"sf", "nyc", "la"}[i%3], int64(i % 4)}
		if i >= 40 {
			row[1], row[2] = fmt.Sprintf("c-%d", i), int64(i*1000)
		}
		if i%7 == 3 {
			row[1] = nil
		}
		if i%5 == 1 {
			row[2] = nil
		}
		rows = append(rows, row)
	}
	predicates := [][]expr.Comparison{
		{{Column: "city", Op: expr.OpIn, Values: []any{"nyc", "c-45", "c-59", "la"}}},
		{{Column: "city", Op: expr.OpEq, Values: []any{"tokyo"}}},
		{{Column: "n", Op: expr.OpGte, Values: []any{int64(2)}}, {Column: "city", Op: expr.OpNeq, Values: []any{"sf"}}},
	}
	for _, native := range []bool{true, false} {
		file := writeFile(t, schema, rows, WriterOptions{RowGroupRows: 40}, native)
		meta, _, err := ReadFooter(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range []int{1, 2} {
			if !meta.RowGroups[0].Chunks[leaf].Dictionary || meta.RowGroups[1].Chunks[leaf].Dictionary {
				t.Fatalf("leaf %d: want a dictionary in row group 0 and plain values in row group 1", leaf)
			}
		}
		legacy, err := NewLegacyReader(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := normalizeRows(drainReader(t, legacy.Next))
		for _, preds := range predicates {
			for _, proj := range [][]string{nil, {"id"}, {"n", "id"}} {
				var want [][]any
				for _, row := range all {
					keep := true
					for _, p := range preds {
						keep = keep && p.Match(row[schema.ColumnIndex(p.Column)])
					}
					if keep {
						out := row
						if proj != nil {
							out = nil
							for _, c := range proj {
								out = append(out, row[schema.ColumnIndex(c)])
							}
						}
						want = append(want, out)
					}
				}
				for toggle, opts := range readerToggles(proj) {
					opts.Predicate = preds
					r, err := NewReader(file, opts)
					if err != nil {
						t.Fatal(err)
					}
					got := normalizeRows(drainReader(t, r.Next))
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Errorf("native=%v %v proj %v toggle %d:\nnew    %v\nlegacy %v", native, preds, proj, toggle, got, want)
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
