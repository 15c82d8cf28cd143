package parquet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// boxedAt is the reference the typed selection is held to: record rec's value
// of a non-repeated chunk, boxed, nil for NULL.
func boxedAt(cd *chunkData, rec int) any {
	if cd.defs == nil {
		return cd.valueAt(rec)
	}
	vi := 0
	for _, d := range cd.defs[:rec] {
		if int(d) == cd.leaf.MaxDef {
			vi++
		}
	}
	if int(cd.defs[rec]) != cd.leaf.MaxDef {
		return nil
	}
	return cd.valueAt(vi)
}

// flatChunk builds the decoded chunk of a nullable flat column from boxed
// values (nil = NULL), the way decodeChunk lays one out.
func flatChunk(t *testing.T, typ *types.Type, values []any, withDefs bool) (*chunkData, *Schema) {
	t.Helper()
	schema, err := NewSchema([]string{"c"}, []*types.Type{typ})
	if err != nil {
		t.Fatal(err)
	}
	leaf := schema.Leaves[0]
	cd := &chunkData{leaf: leaf, entries: len(values)}
	if withDefs {
		cd.defs = make([]uint8, len(values))
	}
	for i, v := range values {
		if v == nil {
			continue
		}
		cd.present++
		if withDefs {
			cd.defs[i] = uint8(leaf.MaxDef)
		}
		switch x := v.(type) {
		case int64:
			cd.ints = append(cd.ints, x)
		case float64:
			cd.floats = append(cd.floats, x)
		case string:
			cd.strs = append(cd.strs, x)
		case bool:
			cd.bools = append(cd.bools, x)
		}
	}
	return cd, schema
}

// dictionaryEncoded returns cd with its values replaced by a dictionary of
// them, entries in reverse first-seen order plus one no value uses, and one
// id per value: the layout of a dictionary-encoded chunk.
func dictionaryEncoded(cd *chunkData) *chunkData {
	out := *cd
	out.ids = make([]int32, 0, cd.present)
	index := map[any]int32{}
	var ints []int64
	var strs []string
	for i := 0; i < cd.present; i++ {
		v := cd.valueAt(i)
		if _, ok := index[v]; !ok {
			index[v] = int32(len(index))
			ints, strs = append(ints, 0), append(strs, "")
		}
		out.ids = append(out.ids, index[v])
	}
	for v, id := range index {
		at := len(index) - 1 - int(id)
		for i := range out.ids {
			if out.ids[i] == id {
				out.ids[i] = int32(at)
			}
		}
		switch x := v.(type) {
		case int64:
			ints[at] = x
		case string:
			strs[at] = x
		}
	}
	out.ints, out.strs = append(ints, 99), append(strs, "unused")
	return &out
}

// TestTypedSelectionMatchesBoxed: for every operator, storage kind and null
// pattern, narrowing a selection with the typed loops keeps exactly the
// records the boxed matchValue accepts — from "every record" and from a
// selection an earlier predicate left, over BIGINT and VARCHAR chunks also
// dictionary-encoded. Values and literals come from
// quick_test.go's randomValue under fixed seeds, plus the cases CompareValues
// makes special: a NaN (which matches only <>), an int64 literal against a
// double column and a double literal against a bigint column.
func TestTypedSelectionMatchesBoxed(t *testing.T) {
	ops := []expr.CompareOp{expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLte, expr.OpGt, expr.OpGte, expr.OpIn}
	kinds := []*types.Type{types.Bigint, types.Double, types.Varchar, types.Boolean}
	for ki, typ := range kinds {
		for _, nulls := range []string{"none", "nodefs", "some", "all"} {
			r := rand.New(rand.NewSource(int64(100*ki + len(nulls))))
			draw := func() any {
				for {
					if v := randomValue(r, typ, 0); v != nil {
						if typ == types.Bigint {
							v = v.(int64) % 8 // collisions, so = and IN match
						}
						if typ == types.Varchar && len(v.(string)) > 1 {
							v = v.(string)[:1]
						}
						return v
					}
				}
			}
			values := make([]any, 97)
			for i := range values {
				switch {
				case nulls == "all", nulls == "some" && r.Intn(4) == 0:
				default:
					values[i] = draw()
				}
			}
			if typ == types.Double && nulls != "all" {
				values[5] = math.NaN()
			}
			var earlier []int // what a previous predicate might have left
			for rec := range values {
				if r.Intn(3) > 0 {
					earlier = append(earlier, rec)
				}
			}
			for _, op := range ops {
				lits := []any{draw(), draw(), draw()}
				switch {
				case typ == types.Double:
					lits[1] = int64(1) // CompareValues widens it
				case typ == types.Bigint:
					lits[1] = 2.9 // CompareValues truncates it
				}
				if op != expr.OpIn {
					lits = lits[r.Intn(3):][:1]
				}
				name := fmt.Sprintf("%s/%s/nulls=%s/%v", typ, expr.Comparison{Op: op}, nulls, lits)
				cd, schema := flatChunk(t, typ, values, nulls != "nodefs")
				p, err := bindPredicate(expr.Comparison{Column: "c", Op: op, Values: lits}, schema)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				chunks := []*chunkData{cd}
				if typ == types.Bigint || typ == types.Varchar {
					chunks = append(chunks, dictionaryEncoded(cd))
				}
				for ci, cd := range chunks {
					for _, from := range [][]int{nil, earlier} {
						var want []int
						keep := func(rec int) {
							if p.Match(boxedAt(cd, rec)) {
								want = append(want, rec)
							}
						}
						if from == nil {
							for rec := range values {
								keep(rec)
							}
						} else {
							for _, rec := range from {
								keep(rec)
							}
						}
						got := p.filter(cd, append([]int(nil), from...), len(values))
						if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
							t.Errorf("%s dictionary=%v from=%v:\ntyped %v\nboxed %v", name, ci == 1, from != nil, got, want)
						}
					}
				}
			}
		}
	}
}

// A literal the column cannot be compared with is the reader's error, not a
// panic per record.
func TestBindPredicateRejectsMismatchedLiteral(t *testing.T) {
	schema, _ := NewSchema([]string{"s", "n"}, []*types.Type{types.Varchar, types.Bigint})
	for _, p := range []expr.Comparison{
		{Column: "s", Op: expr.OpEq, Values: []any{int64(1)}},
		{Column: "n", Op: expr.OpIn, Values: []any{int64(1), "x"}},
		{Column: "n", Op: expr.OpLt},
	} {
		if _, err := bindPredicate(p, schema); err == nil {
			t.Errorf("%s: bound", p)
		}
	}
}

// Predicates on leaves of a nullable struct, through the reader: a NULL
// struct and a NULL field never match, and two predicates intersect.
func TestReaderTypedPredicatesOnNestedLeaves(t *testing.T) {
	typ := types.NewRow(
		types.Field{Name: "x", Type: types.Bigint},
		types.Field{Name: "y", Type: types.Double},
		types.Field{Name: "tag", Type: types.Varchar},
	)
	schema, _ := NewSchema([]string{"id", "s"}, []*types.Type{types.Bigint, typ})
	r := rand.New(rand.NewSource(7))
	var rows [][]any
	pb := block.NewPageBuilder(schema.Types)
	for i := 0; i < 300; i++ {
		var s any
		if r.Intn(5) != 0 {
			s = []any{randomNullable(r, int64(r.Intn(10))), randomNullable(r, float64(r.Intn(40))/4), randomNullable(r, string(rune('a'+r.Intn(3))))}
		}
		row := []any{int64(i), s}
		rows = append(rows, row)
		pb.AppendRow(row)
	}
	var buf bytes.Buffer
	w, _ := NewNativeWriter(&buf, schema, WriterOptions{RowGroupRows: 64})
	if err := w.WritePage(pb.Build()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	preds := []expr.Comparison{
		{Column: "s.x", Op: expr.OpGte, Values: []any{int64(3)}},
		{Column: "s.y", Op: expr.OpLt, Values: []any{int64(7)}},
		{Column: "s.tag", Op: expr.OpIn, Values: []any{"a", "c"}},
	}
	rd, err := NewReader(&fsys.BytesFile{Data: buf.Bytes()}, AllOptimizations([]string{"id", "s.y"}, preds))
	if err != nil {
		t.Fatal(err)
	}
	got := drainReader(t, rd.Next)
	var want [][]any
	for _, row := range rows {
		s, _ := row[1].([]any)
		if s == nil {
			continue
		}
		if preds[0].Match(s[0]) && preds[1].Match(s[1]) && preds[2].Match(s[2]) {
			want = append(want, []any{row[0], s[1]})
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %d rows %v\nwant %d rows %v", len(got), got, len(want), want)
	}
	if rd.Metrics.RowsMatched.Load() != int64(len(want)) || rd.Metrics.RowsScanned.Load() != 300 {
		t.Errorf("metrics = %+v", rd.Metrics)
	}
}

func randomNullable(r *rand.Rand, v any) any {
	if r.Intn(6) == 0 {
		return nil
	}
	return v
}
