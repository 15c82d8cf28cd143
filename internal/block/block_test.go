package block

import (
	"reflect"
	"testing"

	"prestolite/internal/types"
)

func TestInt64BlockBasics(t *testing.T) {
	b := FromValues(types.Bigint, int64(1), nil, int64(3))
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	if b.Value(0) != int64(1) || b.Value(2) != int64(3) {
		t.Errorf("values wrong: %v %v", b.Value(0), b.Value(2))
	}
	if !b.IsNull(1) || b.Value(1) != nil {
		t.Error("null handling wrong")
	}
	r := b.Region(1, 2)
	if r.Count() != 2 || !r.IsNull(0) || r.Value(1) != int64(3) {
		t.Error("region wrong")
	}
	m := b.Mask([]int{2, 0})
	if m.Value(0) != int64(3) || m.Value(1) != int64(1) {
		t.Error("mask wrong")
	}
}

func TestRegionBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-bounds region")
		}
	}()
	FromValues(types.Bigint, int64(1)).Region(0, 2)
}

func TestVarcharBlock(t *testing.T) {
	b := FromValues(types.Varchar, "a", nil, "ccc")
	if b.Value(0) != "a" || !b.IsNull(1) || b.Value(2) != "ccc" {
		t.Error("varchar block wrong")
	}
	if b.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
}

func TestArrayBlock(t *testing.T) {
	typ := types.NewArray(types.Bigint)
	b := FromValues(typ, []any{int64(1), int64(2)}, nil, []any{}, []any{int64(9)})
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	if !reflect.DeepEqual(b.Value(0), []any{int64(1), int64(2)}) {
		t.Errorf("Value(0) = %v", b.Value(0))
	}
	if !b.IsNull(1) {
		t.Error("expected null at 1")
	}
	if got := b.Value(2).([]any); len(got) != 0 {
		t.Errorf("Value(2) = %v", got)
	}
	m := b.Mask([]int{3, 0})
	if !reflect.DeepEqual(m.Value(0), []any{int64(9)}) || !reflect.DeepEqual(m.Value(1), []any{int64(1), int64(2)}) {
		t.Errorf("mask: %v %v", m.Value(0), m.Value(1))
	}
	r := b.Region(1, 3)
	if !r.IsNull(0) || !reflect.DeepEqual(r.Value(2), []any{int64(9)}) {
		t.Error("region wrong")
	}
}

func TestMapBlock(t *testing.T) {
	typ := types.NewMap(types.Varchar, types.Double)
	b := FromValues(typ,
		[][2]any{{"a", 1.5}, {"b", 2.5}},
		nil,
		[][2]any{{"z", 0.0}},
	)
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	v := b.Value(0).([][2]any)
	if v[0][0] != "a" || v[1][1] != 2.5 {
		t.Errorf("Value(0) = %v", v)
	}
	if !b.IsNull(1) {
		t.Error("null wrong")
	}
	m := b.Mask([]int{2})
	if got := m.Value(0).([][2]any); got[0][0] != "z" {
		t.Errorf("mask = %v", got)
	}
}

func TestRowBlockNested(t *testing.T) {
	typ := types.NewRow(
		types.Field{Name: "id", Type: types.Bigint},
		types.Field{Name: "geo", Type: types.NewRow(
			types.Field{Name: "lat", Type: types.Double},
			types.Field{Name: "lng", Type: types.Double},
		)},
	)
	b := FromValues(typ,
		[]any{int64(1), []any{1.0, 2.0}},
		[]any{int64(2), nil},
		nil,
	)
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	row0 := b.Value(0).([]any)
	if row0[0] != int64(1) || !reflect.DeepEqual(row0[1], []any{1.0, 2.0}) {
		t.Errorf("row0 = %v", row0)
	}
	row1 := b.Value(1).([]any)
	if row1[1] != nil {
		t.Errorf("nested null: %v", row1[1])
	}
	if !b.IsNull(2) {
		t.Error("row null wrong")
	}
	rb := b.(*RowBlock)
	if rb.Fields[0].Value(0) != int64(1) {
		t.Error("field access wrong")
	}
}

func TestDictionaryBlock(t *testing.T) {
	dict := FromValues(types.Varchar, "x", "y")
	b := &DictionaryBlock{Dictionary: dict, Ids: []int32{0, 1, 0, -1, 1}}
	if b.Count() != 5 {
		t.Fatalf("Count = %d", b.Count())
	}
	if b.Value(0) != "x" || b.Value(1) != "y" || b.Value(4) != "y" {
		t.Error("dictionary values wrong")
	}
	if !b.IsNull(3) || b.Value(3) != nil {
		t.Error("dictionary null wrong")
	}
	dec := b.Decode()
	for i := 0; i < b.Count(); i++ {
		if !reflect.DeepEqual(dec.Value(i), b.Value(i)) {
			t.Errorf("decode mismatch at %d: %v vs %v", i, dec.Value(i), b.Value(i))
		}
	}
	m := b.Mask([]int{4, 3})
	if m.Value(0) != "y" || !m.IsNull(1) {
		t.Error("dictionary mask wrong")
	}
	// A dictionary that is itself encoded (the wire format admits it) still
	// decodes to a flat block with its NULL ids forced.
	nested := &DictionaryBlock{Dictionary: NewRunLengthBlock(SingleValue(types.Varchar, "x"), 2), Ids: []int32{0, -1, 1}}
	if dec := nested.Decode(); dec.Value(0) != "x" || !dec.IsNull(1) || dec.Value(2) != "x" {
		t.Errorf("nested dictionary decoded to %v", NewPage(dec))
	}
}

// TestDictionaryBlockAllNull: a column that is NULL in every row has ids but
// no dictionary entry (the druid store wraps such a segment column as is, and
// the wire format admits it). It flattens to NULLs of the dictionary's kind.
func TestDictionaryBlockAllNull(t *testing.T) {
	row := types.NewRow(types.Field{Name: "a", Type: types.Bigint}, types.Field{Name: "b", Type: types.Varchar})
	for _, typ := range []*types.Type{types.Bigint, types.Double, types.Boolean, types.Varchar,
		types.NewArray(types.Bigint), types.NewMap(types.Varchar, types.Double), row} {
		b := &DictionaryBlock{Dictionary: FromValues(typ), Ids: []int32{-1, -1, -1}}
		dec := b.Decode()
		if _, still := dec.(*DictionaryBlock); still || dec.Count() != 3 {
			t.Fatalf("%s: decoded to %T over %d positions", typ, dec, dec.Count())
		}
		page := NewPage(b, &Int64Block{Values: []int64{1, 2, 3}})
		data, err := EncodePage(page)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		got, err := DecodePage(data)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		for _, p := range []*Page{page, got, MaterializePage(page), MaterializePage(got)} {
			for i := 0; i < 3; i++ {
				if r := p.Row(i); r[0] != nil || r[1] != int64(i+1) {
					t.Errorf("%s: row %d = %v", typ, i, r)
				}
			}
		}
	}
}

func TestRunLengthBlock(t *testing.T) {
	b := NewRunLengthBlock(SingleValue(types.Varchar, "sf"), 100)
	if b.Count() != 100 || b.Value(57) != "sf" {
		t.Error("RLE wrong")
	}
	r := b.Region(10, 5)
	if r.Count() != 5 || r.Value(0) != "sf" {
		t.Error("RLE region wrong")
	}
	if b.Mask([]int{1, 2, 3}).Count() != 3 {
		t.Error("RLE mask wrong")
	}
	nullRLE := NewRunLengthBlock(FromValues(types.Bigint, nil), 3)
	if !nullRLE.IsNull(2) {
		t.Error("null RLE wrong")
	}
}

func TestLazyBlock(t *testing.T) {
	loads := 0
	b := NewLazyBlock(3, func() Block {
		loads++
		return FromValues(types.Bigint, int64(1), int64(2), int64(3))
	})
	if b.loaded != nil {
		t.Error("should not be loaded yet")
	}
	if b.Count() != 3 {
		t.Error("Count should not force load")
	}
	if loads != 0 {
		t.Error("Count forced a load")
	}
	if b.Value(1) != int64(2) {
		t.Error("value wrong")
	}
	_ = b.Value(2)
	if loads != 1 {
		t.Errorf("loader ran %d times", loads)
	}
	// Region of an unloaded lazy block stays lazy.
	b2 := NewLazyBlock(3, func() Block { return FromValues(types.Bigint, int64(1), int64(2), int64(3)) })
	r := b2.Region(1, 2).(*LazyBlock)
	if r.loaded != nil {
		t.Error("region should stay lazy")
	}
	if r.Value(0) != int64(2) {
		t.Error("lazy region value wrong")
	}
}

func TestLazyBlockWrongCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong loader count")
		}
	}()
	NewLazyBlock(5, func() Block { return FromValues(types.Bigint, int64(1)) }).Load()
}

func TestPage(t *testing.T) {
	p := NewPage(
		FromValues(types.Bigint, int64(1), int64(2), int64(3)),
		FromValues(types.Varchar, "a", "b", "c"),
	)
	if p.Count() != 3 {
		t.Fatalf("Count = %d", p.Count())
	}
	if !reflect.DeepEqual(p.Row(1), []any{int64(2), "b"}) {
		t.Errorf("Row(1) = %v", p.Row(1))
	}
	r := p.Region(1, 2)
	if r.Count() != 2 || r.Row(0)[1] != "b" {
		t.Error("page region wrong")
	}
	m := p.Mask([]int{2, 0})
	if m.Row(0)[0] != int64(3) || m.Row(1)[1] != "a" {
		t.Error("page mask wrong")
	}
}

func TestPageMismatchedCountsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPage(FromValues(types.Bigint, int64(1)), FromValues(types.Varchar, "a", "b"))
}

func TestPageBuilder(t *testing.T) {
	pb := NewPageBuilder([]*types.Type{types.Bigint, types.Varchar})
	pb.AppendRow([]any{int64(1), "x"})
	pb.AppendRow([]any{nil, "y"})
	if pb.Len() != 2 {
		t.Fatalf("Len = %d", pb.Len())
	}
	p := pb.Build()
	if p.Count() != 2 || !p.Blocks[0].IsNull(1) || p.Row(0)[1] != "x" {
		t.Error("page builder wrong")
	}
	// Builder resets for reuse.
	pb.AppendRow([]any{int64(9), "z"})
	p2 := pb.Build()
	if p2.Count() != 1 || p2.Row(0)[0] != int64(9) {
		t.Error("builder reuse wrong")
	}
}

func TestBuilderIntCoercions(t *testing.T) {
	b := NewBuilder(types.Bigint, 4)
	b.Append(5)
	b.Append(int32(6))
	b.Append(int64(7))
	blk := b.Build()
	if blk.Value(0) != int64(5) || blk.Value(1) != int64(6) || blk.Value(2) != int64(7) {
		t.Error("int coercion wrong")
	}
	fb := NewBuilder(types.Double, 2)
	fb.Append(int64(2))
	fb.Append(1.5)
	fblk := fb.Build()
	if fblk.Value(0) != float64(2) || fblk.Value(1) != 1.5 {
		t.Error("float coercion wrong")
	}
}

func TestEncodeDecodePageRoundTrip(t *testing.T) {
	typ := types.NewRow(
		types.Field{Name: "a", Type: types.Bigint},
		types.Field{Name: "tags", Type: types.NewArray(types.Varchar)},
	)
	p := NewPage(
		FromValues(types.Bigint, int64(10), nil, int64(30)),
		FromValues(types.Varchar, "x", "y", "z"),
		FromValues(typ, []any{int64(1), []any{"t1"}}, nil, []any{int64(3), []any{}}),
		FromValues(types.NewMap(types.Varchar, types.Double), [][2]any{{"k", 1.0}}, nil, [][2]any{}),
	)
	data, err := EncodePage(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != p.Count() || len(got.Blocks) != len(p.Blocks) {
		t.Fatalf("shape mismatch: %d x %d", got.Count(), len(got.Blocks))
	}
	for i := 0; i < p.Count(); i++ {
		if !reflect.DeepEqual(got.Row(i), p.Row(i)) {
			t.Errorf("row %d mismatch: %v vs %v", i, got.Row(i), p.Row(i))
		}
	}
}
