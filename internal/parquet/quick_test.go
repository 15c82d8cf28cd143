package parquet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// randomValue generates a boxed value of type t (nil = NULL 1/6 of the time).
func randomValue(r *rand.Rand, t *types.Type, depth int) any {
	if r.Intn(6) == 0 {
		return nil
	}
	switch t.Kind {
	case types.KindBoolean:
		return r.Intn(2) == 0
	case types.KindInteger, types.KindBigint, types.KindDate:
		return r.Int63n(1<<40) - (1 << 39)
	case types.KindDouble:
		return r.NormFloat64()
	case types.KindVarchar:
		n := r.Intn(10)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	case types.KindArray:
		n := r.Intn(4)
		out := make([]any, n)
		for i := range out {
			out[i] = randomValue(r, t.Elem, depth-1)
		}
		return out
	case types.KindMap:
		n := r.Intn(3)
		out := make([][2]any, 0, n)
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			var k any
			for k == nil {
				k = randomValue(r, t.Key, depth-1)
			}
			ks, _ := k.(string)
			if t.Key.Kind == types.KindVarchar && seen[ks] {
				continue
			}
			seen[ks] = true
			out = append(out, [2]any{k, randomValue(r, t.Value, depth-1)})
		}
		return out
	case types.KindRow:
		out := make([]any, len(t.Fields))
		for i, f := range t.Fields {
			out[i] = randomValue(r, f.Type, depth-1)
		}
		return out
	}
	return nil
}

var quickSchemas = []struct {
	names []string
	types []*types.Type
}{
	{[]string{"a"}, []*types.Type{types.Bigint}},
	{[]string{"a", "b"}, []*types.Type{types.Double, types.Varchar}},
	{[]string{"arr"}, []*types.Type{types.NewArray(types.Bigint)}},
	{[]string{"deep"}, []*types.Type{types.NewArray(types.NewArray(types.Varchar))}},
	{[]string{"m"}, []*types.Type{types.NewMap(types.Varchar, types.Double)}},
	{[]string{"s"}, []*types.Type{types.NewRow(
		types.Field{Name: "x", Type: types.Bigint},
		types.Field{Name: "y", Type: types.NewArray(types.NewRow(
			types.Field{Name: "z", Type: types.Varchar},
		))},
	)}},
	{[]string{"mix", "flag"}, []*types.Type{
		types.NewRow(
			types.Field{Name: "tags", Type: types.NewArray(types.Varchar)},
			types.Field{Name: "inner", Type: types.NewRow(types.Field{Name: "v", Type: types.Double})},
		),
		types.Boolean,
	}},
}

// Property: random nested rows survive write (both writers, random codec,
// random row-group size) and read (both readers) bit-exactly.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	f := func(seed int64, schemaIdx, codecIdx uint8, native bool) bool {
		r := rand.New(rand.NewSource(seed))
		sc := quickSchemas[int(schemaIdx)%len(quickSchemas)]
		schema, err := NewSchema(sc.names, sc.types)
		if err != nil {
			t.Logf("schema: %v", err)
			return false
		}
		codec := []Codec{CodecNone, CodecSnappy, CodecGzip}[int(codecIdx)%3]
		nRows := r.Intn(60) + 1
		rows := make([][]any, nRows)
		for i := range rows {
			row := make([]any, len(sc.types))
			for j, ct := range sc.types {
				row[j] = randomValue(r, ct, 3)
			}
			rows[i] = row
		}
		pb := block.NewPageBuilder(sc.types)
		for _, row := range rows {
			pb.AppendRow(row)
		}
		page := pb.Build()

		var buf bytes.Buffer
		opts := WriterOptions{Codec: codec, RowGroupRows: r.Intn(20) + 1}
		if native {
			w, err := NewNativeWriter(&buf, schema, opts)
			if err != nil {
				return false
			}
			if err := w.WritePage(page); err != nil {
				t.Logf("write: %v", err)
				return false
			}
			if err := w.Close(); err != nil {
				return false
			}
		} else {
			w, err := NewLegacyWriter(&buf, schema, opts)
			if err != nil {
				return false
			}
			if err := w.WritePage(page); err != nil {
				t.Logf("write: %v", err)
				return false
			}
			if err := w.Close(); err != nil {
				return false
			}
		}
		file := &fsys.BytesFile{Data: buf.Bytes()}

		want := normalizeRows(rows)
		newR, err := NewReader(file, AllOptimizations(nil, nil))
		if err != nil {
			t.Logf("new reader: %v", err)
			return false
		}
		got := normalizeRows(drainReader(t, newR.Next))
		if !reflect.DeepEqual(got, want) {
			t.Logf("new reader mismatch:\ngot  %v\nwant %v", got, want)
			return false
		}
		legacyR, err := NewLegacyReader(file, nil)
		if err != nil {
			return false
		}
		got2 := normalizeRows(drainReader(t, legacyR.Next))
		if !reflect.DeepEqual(got2, want) {
			t.Logf("legacy reader mismatch:\ngot  %v\nwant %v", got2, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the new reader's in-reader predicate matches a post-hoc filter
// of the full data (predicate correctness under row-group skipping).
func TestQuickPredicateEquivalence(t *testing.T) {
	f := func(seed int64, needle int16, opIdx uint8) bool {
		r := rand.New(rand.NewSource(seed))
		schema, _ := NewSchema([]string{"k", "v"}, []*types.Type{types.Bigint, types.Varchar})
		n := r.Intn(200) + 1
		keys := make([]any, n)
		for i := range keys {
			if r.Intn(10) == 0 {
				keys[i] = nil
			} else {
				keys[i] = r.Int63n(100)
			}
		}
		pb := block.NewPageBuilder(schema.Types)
		for i := 0; i < n; i++ {
			pb.AppendRow([]any{keys[i], "v"})
		}
		var buf bytes.Buffer
		w, _ := NewNativeWriter(&buf, schema, WriterOptions{RowGroupRows: r.Intn(30) + 1})
		w.WritePage(pb.Build())
		w.Close()
		file := &fsys.BytesFile{Data: buf.Bytes()}

		op := []expr.CompareOp{expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLte, expr.OpGt, expr.OpGte}[int(opIdx)%6]
		pred := expr.Comparison{Column: "k", Op: op, Values: []any{int64(needle) % 100}}
		var want []any
		for _, k := range keys {
			if pred.Match(k) {
				want = append(want, k)
			}
		}
		// v is projected only: its chunks are fetched after the selection is
		// known. No chunk cache, a roomy one, or one that holds a few chunks;
		// the second pass meets whatever the first left in it.
		opts := AllOptimizations([]string{"k", "v"}, []expr.Comparison{pred})
		opts.Path = "/t/part-0"
		switch uint64(seed) % 3 {
		case 1:
			opts.Chunks = cache.NewChunkCache[any](1 << 20)
		case 2:
			opts.Chunks = cache.NewChunkCache[any](16 * 384)
		}
		for pass := 0; pass < 2; pass++ {
			rd, err := NewReader(file, opts)
			if err != nil {
				return false
			}
			got := drainReader(t, rd.Next)
			if len(got) != len(want) {
				t.Logf("op=%v needle=%d pass %d: got %d rows, want %d", op, pred.Values[0], pass, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i][0] != want[i] || got[i][1] != "v" {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
