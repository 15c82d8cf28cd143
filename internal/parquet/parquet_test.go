package parquet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// tripSchema mirrors the paper's nested trips table (§V.C).
func tripSchema(t testing.TB) *Schema {
	t.Helper()
	base := types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
		types.Field{Name: "city_id", Type: types.Bigint},
		types.Field{Name: "vehicle", Type: types.NewRow(
			types.Field{Name: "make", Type: types.Varchar},
			types.Field{Name: "year", Type: types.Bigint},
		)},
	)
	s, err := NewSchema(
		[]string{"base", "datestr", "fare", "tags", "metrics"},
		[]*types.Type{base, types.Varchar, types.Double, types.NewArray(types.Varchar), types.NewMap(types.Varchar, types.Double)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tripRows() [][]any {
	return [][]any{
		{[]any{"d-1", int64(12), []any{"toyota", int64(2015)}}, "2017-03-02", 10.5, []any{"airport"}, [][2]any{{"surge", 1.2}}},
		{[]any{"d-2", int64(7), nil}, "2017-03-02", 5.0, []any{}, [][2]any{}},
		{[]any{"d-3", int64(12), []any{"honda", int64(2018)}}, "2017-03-03", 7.5, nil, nil},
		{nil, "2017-03-03", 2.5, []any{"pool", "downtown"}, [][2]any{{"surge", 1.0}, {"toll", 3.5}}},
		{[]any{"d-5", int64(9), []any{nil, int64(2020)}}, "2017-03-04", 30.0, []any{nil, "x"}, [][2]any{{"k", nil}}},
	}
}

func buildPage(t testing.TB, s *Schema, rows [][]any) *block.Page {
	t.Helper()
	pb := block.NewPageBuilder(s.Types)
	for _, r := range rows {
		pb.AppendRow(r)
	}
	return pb.Build()
}

func writeFile(t testing.TB, s *Schema, rows [][]any, opts WriterOptions, native bool) *fsys.BytesFile {
	t.Helper()
	var buf bytes.Buffer
	page := buildPage(t, s, rows)
	if native {
		w, err := NewNativeWriter(&buf, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePage(page); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		w, err := NewLegacyWriter(&buf, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePage(page); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return &fsys.BytesFile{Data: buf.Bytes()}
}

func drainReader(t *testing.T, next func() (*block.Page, error)) [][]any {
	t.Helper()
	var rows [][]any
	for {
		p, err := next()
		if errors.Is(err, io.EOF) {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.Count(); i++ {
			rows = append(rows, p.Row(i))
		}
	}
}

// normalize maps empty []any / [][2]any consistently for DeepEqual.
func normalize(v any) any {
	switch x := v.(type) {
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalize(e)
		}
		return out
	case [][2]any:
		out := make([][2]any, len(x))
		for i, e := range x {
			out[i] = [2]any{normalize(e[0]), normalize(e[1])}
		}
		return out
	default:
		return v
	}
}

func normalizeRows(rows [][]any) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		nr := make([]any, len(r))
		for j, v := range r {
			nr[j] = normalize(v)
		}
		out[i] = nr
	}
	return out
}

func TestRoundTripBothWritersBothReaders(t *testing.T) {
	s := tripSchema(t)
	rows := tripRows()
	for _, codec := range []Codec{CodecNone, CodecSnappy, CodecGzip} {
		for _, native := range []bool{true, false} {
			f := writeFile(t, s, rows, WriterOptions{Codec: codec}, native)

			legacy, err := NewLegacyReader(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := drainReader(t, legacy.Next)
			if !reflect.DeepEqual(normalizeRows(got), normalizeRows(rows)) {
				t.Fatalf("codec=%v native=%v legacy reader:\ngot  %v\nwant %v", codec, native, got, rows)
			}

			nr, err := NewReader(f, AllOptimizations(nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			got2 := drainReader(t, nr.Next)
			if !reflect.DeepEqual(normalizeRows(got2), normalizeRows(rows)) {
				t.Fatalf("codec=%v native=%v new reader:\ngot  %v\nwant %v", codec, native, got2, rows)
			}
		}
	}
}

func TestWritersProduceEquivalentData(t *testing.T) {
	s := tripSchema(t)
	rows := tripRows()
	fNative := writeFile(t, s, rows, WriterOptions{Codec: CodecSnappy}, true)
	fLegacy := writeFile(t, s, rows, WriterOptions{Codec: CodecSnappy}, false)
	r1, _ := NewReader(fNative, AllOptimizations(nil, nil))
	r2, _ := NewReader(fLegacy, AllOptimizations(nil, nil))
	g1 := drainReader(t, r1.Next)
	g2 := drainReader(t, r2.Next)
	if !reflect.DeepEqual(normalizeRows(g1), normalizeRows(g2)) {
		t.Fatalf("writers disagree:\nnative %v\nlegacy %v", g1, g2)
	}
}

func TestNestedColumnPruning(t *testing.T) {
	s := tripSchema(t)
	f := writeFile(t, s, tripRows(), WriterOptions{}, true)
	r, err := NewReader(f, AllOptimizations([]string{"base.driver_uuid", "base.city_id"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	rows := drainReader(t, r.Next)
	if len(rows) != 5 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "d-1" || rows[0][1] != int64(12) {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[3][0] != nil || rows[3][1] != nil {
		t.Errorf("null struct row = %v", rows[3])
	}
	// Only the two requested leaves decoded.
	if r.Metrics.LeavesDecoded.Load() != 2 {
		t.Errorf("LeavesDecoded = %d, want 2", r.Metrics.LeavesDecoded.Load())
	}
	if tt := r.OutputTypes(); tt[0] != types.Varchar || tt[1] != types.Bigint {
		t.Errorf("output types = %v", tt)
	}
}

func TestPredicateInsideReader(t *testing.T) {
	s := tripSchema(t)
	f := writeFile(t, s, tripRows(), WriterOptions{}, true)
	preds := []expr.Comparison{{Column: "base.city_id", Op: expr.OpIn, Values: []any{int64(12)}}}
	r, err := NewReader(f, AllOptimizations([]string{"base.driver_uuid", "datestr"}, preds))
	if err != nil {
		t.Fatal(err)
	}
	rows := drainReader(t, r.Next)
	if len(rows) != 2 || rows[0][0] != "d-1" || rows[1][0] != "d-3" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPredicatePushdownSkipsRowGroups(t *testing.T) {
	s, err := NewSchema([]string{"city_id", "name"}, []*types.Type{types.Bigint, types.Varchar})
	if err != nil {
		t.Fatal(err)
	}
	// Small row groups: values 0..9 in group 1, 10..19 in group 2, etc.
	var buf bytes.Buffer
	w, err := NewNativeWriter(&buf, s, WriterOptions{RowGroupRows: 10, DisableDictionary: true})
	if err != nil {
		t.Fatal(err)
	}
	pb := block.NewPageBuilder(s.Types)
	for i := 0; i < 50; i++ {
		pb.AppendRow([]any{int64(i), "n"})
	}
	if err := w.WritePage(pb.Build()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f := &fsys.BytesFile{Data: buf.Bytes()}

	preds := []expr.Comparison{{Column: "city_id", Op: expr.OpEq, Values: []any{int64(12)}}}
	r, err := NewReader(f, AllOptimizations([]string{"name"}, preds))
	if err != nil {
		t.Fatal(err)
	}
	rows := drainReader(t, r.Next)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if r.Metrics.RowGroupsSkippedStats.Load() != 4 || r.Metrics.RowGroupsRead.Load() != 1 {
		t.Errorf("metrics = %+v", r.Metrics)
	}

	// Needle not present at all: every group skipped by stats.
	r2, _ := NewReader(f, AllOptimizations([]string{"name"}, []expr.Comparison{{Column: "city_id", Op: expr.OpEq, Values: []any{int64(999)}}}))
	if rows := drainReader(t, r2.Next); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
	if r2.Metrics.RowGroupsSkippedStats.Load() != 5 {
		t.Errorf("metrics = %+v", r2.Metrics)
	}

	// Range predicates.
	r3, _ := NewReader(f, AllOptimizations([]string{"city_id"}, []expr.Comparison{{Column: "city_id", Op: expr.OpGte, Values: []any{int64(40)}}}))
	if rows := drainReader(t, r3.Next); len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if r3.Metrics.RowGroupsRead.Load() != 1 {
		t.Errorf("metrics = %+v", r3.Metrics)
	}
}

func TestDictionaryPushdownSkipsRowGroups(t *testing.T) {
	s, err := NewSchema([]string{"city_id"}, []*types.Type{types.Bigint})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewNativeWriter(&buf, s, WriterOptions{RowGroupRows: 100})
	pb := block.NewPageBuilder(s.Types)
	// Fig 8: dictionary {3,5,9,14,21} spanning min=3..max=21, so stats alone
	// cannot exclude city_id = 12 but the dictionary can.
	dict := []int64{3, 5, 9, 14, 21}
	for i := 0; i < 100; i++ {
		pb.AppendRow([]any{dict[i%len(dict)]})
	}
	w.WritePage(pb.Build())
	w.Close()
	f := &fsys.BytesFile{Data: buf.Bytes()}

	preds := []expr.Comparison{{Column: "city_id", Op: expr.OpEq, Values: []any{int64(12)}}}
	r, _ := NewReader(f, AllOptimizations([]string{"city_id"}, preds))
	if rows := drainReader(t, r.Next); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
	if r.Metrics.RowGroupsSkippedDict.Load() != 1 || r.Metrics.RowGroupsSkippedStats.Load() != 0 {
		t.Errorf("metrics = %+v", r.Metrics)
	}

	// Without dictionary pushdown the group is read and filtered row-wise.
	opts := AllOptimizations([]string{"city_id"}, preds)
	opts.DictionaryPushdown = false
	r2, _ := NewReader(f, opts)
	if rows := drainReader(t, r2.Next); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
	if r2.Metrics.RowGroupsRead.Load() != 1 {
		t.Errorf("metrics = %+v", r2.Metrics)
	}
}

func TestLazyReads(t *testing.T) {
	s := tripSchema(t)
	f := writeFile(t, s, tripRows(), WriterOptions{}, true)
	preds := []expr.Comparison{{Column: "base.city_id", Op: expr.OpEq, Values: []any{int64(12)}}}
	r, err := NewReader(f, AllOptimizations([]string{"datestr", "base.city_id"}, preds))
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	lazy, ok := p.Blocks[0].(*block.LazyBlock)
	if !ok {
		t.Fatalf("non-predicate column should be lazy, got %T", p.Blocks[0])
	}
	// datestr is decoded only when a value is asked for:
	before := r.Metrics.LeavesDecoded.Load()
	if got := lazy.Value(0); got != "2017-03-02" {
		t.Errorf("lazy value = %v", got)
	}
	if after := r.Metrics.LeavesDecoded.Load(); after != before+1 {
		t.Errorf("leaves decoded %d -> %d: the lazy block materialized too early", before, after)
	}
	// Predicate column is eager (already decoded for filtering).
	if _, isLazy := p.Blocks[1].(*block.LazyBlock); isLazy {
		t.Error("predicate column should be eager")
	}
}

func TestSchemaEvolutionNewFieldReadsNull(t *testing.T) {
	// Write with the old schema (no "rating" field), read with a new schema
	// that added rating to the struct: §V.A "when querying newly added
	// fields in old data, return null".
	oldBase := types.NewRow(types.Field{Name: "driver_uuid", Type: types.Varchar})
	sOld, err := NewSchema([]string{"base"}, []*types.Type{oldBase})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewNativeWriter(&buf, sOld, WriterOptions{})
	pb := block.NewPageBuilder(sOld.Types)
	pb.AppendRow([]any{[]any{"d-1"}})
	pb.AppendRow([]any{[]any{"d-2"}})
	w.WritePage(pb.Build())
	w.Close()

	f := &fsys.BytesFile{Data: buf.Bytes()}
	r, err := NewReader(f, AllOptimizations([]string{"base.driver_uuid"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	rows := drainReader(t, r.Next)
	if len(rows) != 2 || rows[0][0] != "d-1" {
		t.Fatalf("rows = %v", rows)
	}
	// The new field is not in the file schema: Resolve fails at reader
	// level; the connector layer maps missing fields to null leaves. Here we
	// verify reading an existing leaf from an evolved file keeps working,
	// and that a missing chunk for a known leaf yields nulls (nullChunk).
	leaf := sOld.Leaves[0]
	nc := nullChunk(leaf, 3)
	if nc.entries != 3 || nc.present != 0 {
		t.Errorf("nullChunk = %+v", nc)
	}
}

func TestMultipleRowGroupsAndPages(t *testing.T) {
	s, _ := NewSchema([]string{"v"}, []*types.Type{types.Bigint})
	var buf bytes.Buffer
	w, _ := NewNativeWriter(&buf, s, WriterOptions{RowGroupRows: 7})
	for p := 0; p < 3; p++ {
		pb := block.NewPageBuilder(s.Types)
		for i := 0; i < 10; i++ {
			pb.AppendRow([]any{int64(p*10 + i)})
		}
		if err := w.WritePage(pb.Build()); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	f := &fsys.BytesFile{Data: buf.Bytes()}
	meta, _, err := ReadFooter(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.RowGroups) != 5 { // 30 rows / 7 per group = 5 groups
		t.Errorf("row groups = %d", len(meta.RowGroups))
	}
	r, _ := NewReader(f, AllOptimizations(nil, nil))
	rows := drainReader(t, r.Next)
	if len(rows) != 30 || rows[29][0] != int64(29) {
		t.Fatalf("rows = %d, last = %v", len(rows), rows[len(rows)-1])
	}
}

func TestFooterStats(t *testing.T) {
	s := tripSchema(t)
	f := writeFile(t, s, tripRows(), WriterOptions{}, true)
	meta, schema, err := ReadFooter(f)
	if err != nil {
		t.Fatal(err)
	}
	leaf := schema.Resolve("base.city_id")
	var cm *ChunkMeta
	for i := range meta.RowGroups[0].Chunks {
		if meta.RowGroups[0].Chunks[i].LeafIndex == leaf.LeafIndex {
			cm = &meta.RowGroups[0].Chunks[i]
		}
	}
	if cm == nil {
		t.Fatal("no chunk for base.city_id")
	}
	if cm.Stats.Min(types.Bigint) != int64(7) || cm.Stats.Max(types.Bigint) != int64(12) {
		t.Errorf("stats = %+v", cm.Stats)
	}
	if cm.Stats.NullCount != 1 { // one null struct row
		t.Errorf("null count = %d", cm.Stats.NullCount)
	}
}

func TestCorruptFiles(t *testing.T) {
	s := tripSchema(t)
	f := writeFile(t, s, tripRows(), WriterOptions{}, true)
	// Truncated file.
	if _, _, err := ReadFooter(&fsys.BytesFile{Data: f.Data[:10]}); err == nil {
		t.Error("truncated footer read succeeded")
	}
	// Bad magic.
	bad := append([]byte{}, f.Data...)
	copy(bad[len(bad)-4:], []byte("XXXX"))
	if _, _, err := ReadFooter(&fsys.BytesFile{Data: bad}); err == nil {
		t.Error("bad magic read succeeded")
	}
	// Garbage footer.
	bad2 := append([]byte{}, f.Data...)
	mid := len(bad2) - 100
	for i := mid; i < len(bad2)-8; i++ {
		bad2[i] = 0xAB
	}
	if _, _, err := ReadFooter(&fsys.BytesFile{Data: bad2}); err == nil {
		t.Error("garbage footer read succeeded")
	}
	// Unknown column.
	if _, err := NewReader(f, AllOptimizations([]string{"nope"}, nil)); err == nil {
		t.Error("unknown column succeeded")
	}
	if _, err := NewReader(f, AllOptimizations(nil, []expr.Comparison{{Column: "tags", Op: expr.OpEq, Values: []any{int64(1)}}})); err == nil {
		t.Error("predicate on repeated column succeeded")
	}
}

func TestEmptyFile(t *testing.T) {
	s := tripSchema(t)
	var buf bytes.Buffer
	w, _ := NewNativeWriter(&buf, s, WriterOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f := &fsys.BytesFile{Data: buf.Bytes()}
	r, err := NewReader(f, AllOptimizations(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainReader(t, r.Next); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

// The writer dictionary-encodes a chunk with at most half as many distinct
// values as values, and otherwise when its dictionary page and ids are
// smaller than the plain values; a chunk of distinct values never.
func TestWriterChoosesDictionaryBySize(t *testing.T) {
	long := func(i int) any { return fmt.Sprintf("%036d", i) }
	for _, tc := range []struct {
		name  string
		typ   *types.Type
		value func(i int) any
		dict  bool
	}{
		{"few distinct", types.Bigint, func(i int) any { return int64(i % 5) }, true},
		{"long strings, 12 of 20 distinct", types.Varchar, func(i int) any { return long(i % 12) }, true},
		{"small integers, 12 of 20 distinct", types.Bigint, func(i int) any { return int64(i % 12) }, false},
		{"all distinct", types.Varchar, long, false},
	} {
		s, err := NewSchema([]string{"c"}, []*types.Type{tc.typ})
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]any
		for i := 0; i < 20; i++ {
			rows = append(rows, []any{tc.value(i)})
		}
		f := writeFile(t, s, rows, WriterOptions{}, true)
		meta, _, err := ReadFooter(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := meta.RowGroups[0].Chunks[0].Dictionary; got != tc.dict {
			t.Errorf("%s: dictionary-encoded %v, want %v", tc.name, got, tc.dict)
		}
		r, err := NewReader(f, AllOptimizations(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := drainReader(t, r.Next); !reflect.DeepEqual(got, rows) {
			t.Errorf("%s: read back %v", tc.name, got)
		}
	}
	var buf [binary.MaxVarintLen64]byte
	for _, x := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 62, ^uint64(0)} {
		if got, want := uvarintLen(x), binary.PutUvarint(buf[:], x); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", x, got, want)
		}
	}
}

// Dictionary ids of every width decode as binary.Uvarint reads them, and an
// id cut short or past the dictionary is an error.
func TestDecodeDictionaryIds(t *testing.T) {
	s, err := NewSchema([]string{"c"}, []*types.Type{types.Bigint})
	if err != nil {
		t.Fatal(err)
	}
	dict := &dictionary{ints: make([]int64, 20001)}
	want := []int32{0, 1, 127, 128, 129, 300, 16383, 16384, 20000, 5}
	var data []byte
	for _, id := range want {
		data = binary.AppendUvarint(data, uint64(id))
	}
	cd, err := decodeDictChunk(&chunkData{leaf: s.Leaves[0], present: len(want)}, &valueDecoder{data: data}, dict)
	if err != nil || !reflect.DeepEqual(cd.ids, want) {
		t.Fatalf("ids %v (%v), want %v", cd.ids, err, want)
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		present int
		size    int
	}{
		{"cut short", data[:len(data)-3], len(want), 20001}, // ends inside 20000
		{"past the dictionary", binary.AppendUvarint(nil, 20001), 1, 20001},
		{"two-byte id past the dictionary", binary.AppendUvarint(nil, 16000), 1, 200},
	} {
		cd := &chunkData{leaf: s.Leaves[0], present: tc.present}
		if _, err := decodeDictChunk(cd, &valueDecoder{data: tc.data}, &dictionary{ints: make([]int64, tc.size)}); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
}
