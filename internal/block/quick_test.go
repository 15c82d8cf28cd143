package block

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prestolite/internal/types"
)

// randomValue generates a boxed value of type t.
func randomValue(r *rand.Rand, t *types.Type, depth int) any {
	if r.Intn(6) == 0 {
		return nil
	}
	switch t.Kind {
	case types.KindBoolean:
		return r.Intn(2) == 0
	case types.KindInteger, types.KindBigint, types.KindDate:
		return r.Int63n(1 << 40)
	case types.KindDouble:
		return r.NormFloat64()
	case types.KindVarchar:
		n := r.Intn(12)
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
		out := make([][2]any, n)
		for i := range out {
			k := randomValue(r, t.Key, depth-1)
			if k == nil {
				k = randomNonNull(r, t.Key)
			}
			out[i] = [2]any{k, randomValue(r, t.Value, depth-1)}
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

func randomNonNull(r *rand.Rand, t *types.Type) any {
	for {
		if v := randomValue(r, t, 1); v != nil {
			return v
		}
	}
}

var quickTypes = []*types.Type{
	types.Bigint,
	types.Double,
	types.Boolean,
	types.Varchar,
	types.NewArray(types.Bigint),
	types.NewArray(types.NewArray(types.Varchar)),
	types.NewMap(types.Varchar, types.Double),
	types.NewRow(
		types.Field{Name: "a", Type: types.Bigint},
		types.Field{Name: "b", Type: types.NewArray(types.Varchar)},
		types.Field{Name: "c", Type: types.NewRow(types.Field{Name: "x", Type: types.Double})},
	),
}

// Property: building a block from values and reading them back is identity.
func TestQuickBuilderRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		typ := quickTypes[int(n)%len(quickTypes)]
		count := r.Intn(50) + 1
		vals := make([]any, count)
		for i := range vals {
			vals[i] = randomValue(r, typ, 3)
		}
		blk := FromValues(typ, vals...)
		if blk.Count() != count {
			return false
		}
		for i, want := range vals {
			got := blk.Value(i)
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Logf("type %v pos %d: got %#v want %#v", typ, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Mask then Value equals picking the original values.
func TestQuickMaskConsistent(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		typ := quickTypes[int(n)%len(quickTypes)]
		count := r.Intn(40) + 1
		vals := make([]any, count)
		for i := range vals {
			vals[i] = randomValue(r, typ, 2)
		}
		blk := FromValues(typ, vals...)
		perm := r.Perm(count)[:r.Intn(count)+1]
		masked := blk.Mask(perm)
		for out, p := range perm {
			if !reflect.DeepEqual(normalize(masked.Value(out)), normalize(vals[p])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Region is a consistent window.
func TestQuickRegionConsistent(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		typ := quickTypes[int(n)%len(quickTypes)]
		count := r.Intn(40) + 2
		vals := make([]any, count)
		for i := range vals {
			vals[i] = randomValue(r, typ, 2)
		}
		blk := FromValues(typ, vals...)
		off := r.Intn(count)
		length := r.Intn(count - off)
		reg := blk.Region(off, length)
		for i := 0; i < length; i++ {
			if !reflect.DeepEqual(normalize(reg.Value(i)), normalize(vals[off+i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// randomColumn builds a column of count rows of a random type in one of the
// shapes the codec is handed: flat, dictionary (small or larger than its
// ids), run length, lazy, or a window of a larger block (nested offsets that
// do not start at zero). keeps names the kind that must survive the codec.
func randomColumn(r *rand.Rand, count int) (b Block, keeps string) {
	typ := quickTypes[r.Intn(len(quickTypes))]
	flat := func(n int) Block {
		vals := make([]any, n)
		for i := range vals {
			vals[i] = randomValue(r, typ, 2)
		}
		return FromValues(typ, vals...)
	}
	switch r.Intn(6) {
	case 0:
		size := r.Intn(count+3) + 1 // now and then larger than its ids
		ids := make([]int32, count)
		for i := range ids {
			ids[i] = int32(r.Intn(size+1)) - 1 // -1 = null
		}
		if size <= count {
			keeps = "dictionary"
		}
		return &DictionaryBlock{Dictionary: flat(size), Ids: ids}, keeps
	case 1:
		if count >= 2 {
			keeps = "runlength"
		}
		return NewRunLengthBlock(flat(1), count), keeps
	case 2:
		return NewLazyBlock(count, func() Block { return flat(count) }), ""
	case 3:
		off := r.Intn(5)
		return flat(off+count+r.Intn(5)).Region(off, count), ""
	case 4:
		inner, _ := randomColumn(r, count)
		return NewRowBlock(count, []Block{inner, flat(count)}, nil), ""
	default:
		return flat(count), ""
	}
}

// Property: DecodePage(EncodePage(p)) equals p value for value and null for
// null for every kind, nested and empty pages included; dictionary and
// run-length columns come back as what they were; and the page reads the same
// as what the gob codec this one replaced hands back.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		count := r.Intn(31) // empty pages too
		blocks := make([]Block, r.Intn(4))
		keeps := make([]string, len(blocks))
		for c := range blocks {
			blocks[c], keeps[c] = randomColumn(r, count)
		}
		p := &Page{Blocks: blocks, N: count}
		data, err := EncodePage(p)
		if err != nil {
			t.Log(err)
			return false
		}
		got, err := DecodePage(data)
		if err != nil {
			t.Log(err)
			return false
		}
		oracleData, err := gobEncodePage(p)
		if err != nil {
			t.Log(err)
			return false
		}
		oracle, err := gobDecodePage(oracleData)
		if err != nil {
			t.Log(err)
			return false
		}
		if got.N != count || len(got.Blocks) != len(blocks) || oracle.N != count {
			t.Logf("decoded %d x %d, want %d x %d", got.N, len(got.Blocks), count, len(blocks))
			return false
		}
		for c, b := range got.Blocks {
			_, isDict := b.(*DictionaryBlock)
			_, isRLE := b.(*RunLengthBlock)
			if isDict != (keeps[c] == "dictionary") || isRLE != (keeps[c] == "runlength") {
				t.Logf("column %d (%T) decoded as %T, want it to keep %q", c, Unwrap(blocks[c]), b, keeps[c])
				return false
			}
			for i := 0; i < count; i++ {
				if b.IsNull(i) != blocks[c].IsNull(i) {
					t.Logf("column %d row %d: null = %v, want %v", c, i, b.IsNull(i), blocks[c].IsNull(i))
					return false
				}
			}
		}
		for i := 0; i < count; i++ {
			want := normalize(p.Row(i))
			if !reflect.DeepEqual(normalize(got.Row(i)), want) {
				t.Logf("row %d = %v, want %v", i, got.Row(i), p.Row(i))
				return false
			}
			if !reflect.DeepEqual(normalize(oracle.Row(i)), want) {
				t.Logf("row %d: the gob oracle reads %v, want %v", i, oracle.Row(i), p.Row(i))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// normalize maps empty slices to nil-insensitive forms so DeepEqual compares
// [] and nil-backed empties consistently.
func normalize(v any) any {
	switch x := v.(type) {
	case []any:
		if len(x) == 0 {
			return []any{}
		}
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalize(e)
		}
		return out
	case [][2]any:
		if len(x) == 0 {
			return [][2]any{}
		}
		out := make([][2]any, len(x))
		for i, e := range x {
			out[i] = [2]any{normalize(e[0]), normalize(e[1])}
		}
		return out
	default:
		return v
	}
}
