package vector

// Fuzz harnesses for the open-addressing hash tables, the WHERE selection
// kernel and the key encoder. Each target decodes the fuzz input into
// batched operations or values, runs them through the vectorized
// structure, and checks every observable result against a straightforward
// reference (a Go map, the boxed block.Value path, or a recursive
// equality). The `dampen` selector shrinks the stored hash space down to a
// handful of values, forcing the collision and slot-growth paths that
// random 64-bit hashes would almost never take.
//
// Seed corpus lives in testdata/fuzz/<Target>/; CI runs each target briefly
// (make fuzz-smoke), and `go test -fuzz=<Target> ./internal/execution/vector/`
// digs deeper locally.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// fuzzDampens are the stored-hash masks a fuzz input can select: production
// (all bits), pathological (every key collides), and two small spaces.
var fuzzDampens = []uint64{^uint64(0), 0, 0x7, 0x3f}

// fuzzKey is the reference identity of one decoded key: a small int64
// domain with deliberate duplicates, plus NULL (byte ≥ 0xf0).
type fuzzKey struct {
	null bool
	v    int64
}

// decodeKeys turns a chunk of fuzz bytes into a flat BIGINT block and the
// matching reference keys.
func decodeKeys(chunk []byte) (*block.Int64Block, []fuzzKey) {
	n := len(chunk)
	vals := make([]int64, n)
	var nulls []bool
	keys := make([]fuzzKey, n)
	for i, b := range chunk {
		if b >= 0xf0 {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
			keys[i] = fuzzKey{null: true}
			continue
		}
		v := int64(b%61) - 7
		vals[i] = v
		keys[i] = fuzzKey{v: v}
	}
	return &block.Int64Block{Values: vals, Nulls: nulls}, keys
}

// fuzzDictionary is the dictionary of the dictionary mode's pages: duplicate
// entries, and a NULL entry besides the -1 id.
var fuzzDictionary = &block.Int64Block{
	Values: []int64{-7, 0, 5, -7, 0, 12, 3, 0},
	Nulls:  []bool{false, false, false, false, true, false, false, false},
}

// decodeDictKeys turns a chunk of fuzz bytes into ids over fuzzDictionary
// (a byte ≥ 0xf0 is id -1) and the matching reference keys.
func decodeDictKeys(chunk []byte) (*block.DictionaryBlock, []fuzzKey) {
	ids := make([]int32, len(chunk))
	keys := make([]fuzzKey, len(chunk))
	for i, b := range chunk {
		id := int32(-1)
		if b < 0xf0 {
			id = int32(b) % int32(fuzzDictionary.Count())
		}
		ids[i] = id
		if id < 0 || fuzzDictionary.IsNull(int(id)) {
			keys[i] = fuzzKey{null: true}
		} else {
			keys[i] = fuzzKey{v: fuzzDictionary.Values[id]}
		}
	}
	return &block.DictionaryBlock{Dictionary: fuzzDictionary, Ids: ids}, keys
}

// FuzzGroupTable drives GroupTable.Assign through random key streams —
// duplicates, NULL keys, forced hash collisions, slot growth past the
// initial 64, and Reset (the post-spill rebuild) — checking the key→id
// mapping against a map: same key, same dense id; new key, next id; stored
// keys round-trip through KeyBlock. In dictionary mode (bit 2 of the
// selector) every other page is ids over fuzzDictionary and goes through
// DictMemo, which must assign exactly as the row path: an entry no row uses
// opens no group, and ids come out first-seen.
func FuzzGroupTable(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 1, 2, 3, 0xf0})
	f.Add(uint8(1), []byte("collide-all-hashes-through-equality"))
	f.Add(uint8(2), []byte{0, 61, 122, 0xff, 0, 61, 122}) // dup values, then Reset
	f.Add(uint8(4), []byte("dictionary ids then flat keys: 0123456789abcdef0123456789abcdef"))
	f.Fuzz(func(t *testing.T, d uint8, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		gt, ok := NewGroupTable([]*types.Type{types.Bigint})
		if !ok {
			t.Fatal("bigint key rejected")
		}
		gt.dampen = fuzzDampens[int(d)%len(fuzzDampens)]
		dictMode := d&4 != 0
		ref := map[fuzzKey]int32{}
		var hasher Hasher
		var memo DictMemo
		for page := 0; len(data) > 0; page++ {
			if data[0] == 0xff { // spill boundary: drop all state, rebuild
				gt.Reset()
				ref = map[fuzzKey]int32{}
				data = data[1:]
				continue
			}
			n := min(len(data), 32)
			var blk block.Block
			var keys []fuzzKey
			if dictMode && page%2 == 0 {
				blk, keys = decodeDictKeys(data[:n])
			} else {
				blk, keys = decodeKeys(data[:n])
			}
			data = data[n:]
			var view View
			if !Of(blk, &view) {
				t.Fatalf("no view over %T", blk)
			}
			ids := make([]int32, n)
			if !memo.Assign(gt, []*View{&view}, n, ids) {
				hashes := make([]uint64, n)
				hasher.HashPage(block.NewPage(blk), []int{0}, hashes)
				gt.Assign([]*View{&view}, n, hashes, ids)
			}
			for i, k := range keys {
				if want, seen := ref[k]; seen {
					if ids[i] != want {
						t.Fatalf("key %v: got id %d, want %d", k, ids[i], want)
					}
				} else {
					if int(ids[i]) != len(ref) {
						t.Fatalf("new key %v: got id %d, want next dense id %d", k, ids[i], len(ref))
					}
					ref[k] = ids[i]
				}
			}
			if gt.Len() != len(ref) {
				t.Fatalf("table has %d groups, reference %d", gt.Len(), len(ref))
			}
		}
		// Stored keys must round-trip: group g's key is the one that was
		// assigned id g.
		inv := make(map[int32]fuzzKey, len(ref))
		for k, g := range ref {
			inv[g] = k
		}
		stored := gt.KeyBlock(0, 0, gt.Len())
		for g := 0; g < gt.Len(); g++ {
			got, k := stored.Value(g), inv[int32(g)]
			switch {
			case k.null && got != nil:
				t.Fatalf("group %d: stored %v, want NULL", g, got)
			case !k.null && got != k.v:
				t.Fatalf("group %d: stored %v, want %d", g, got, k.v)
			}
		}
	})
}

// fuzzDoubles is the DOUBLE join-key domain: both zeros, which are `=`;
// two NaNs of different payload, which are `=` to nothing; plain values.
var fuzzDoubles = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000bad), 1.5, -2.25, 3}

// decodeJoinKeys decodes one row per byte into k ≤ 2 key columns: column 0
// is BIGINT (b%61 - 7) or, with dbl, DOUBLE from fuzzDoubles; column 1 is
// BIGINT (b%3). A byte ≥ 0xf0 is NULL in every column. ids[r] is the
// identity of row r's key under `=` (−0.0 and +0.0 share one), or nil when
// the key is `=` to nothing: a NULL or a NaN. With no key columns every row
// has the same identity — the cross product.
func decodeJoinKeys(chunk []byte, k int, dbl bool) ([]block.Block, []*[2]any) {
	n := len(chunk)
	ints, doubles, small := make([]int64, n), make([]float64, n), make([]int64, n)
	var nulls []bool
	ids := make([]*[2]any, n)
	for r, b := range chunk {
		if k > 0 && b >= 0xf0 {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[r] = true
			continue
		}
		ints[r], doubles[r], small[r] = int64(b%61)-7, fuzzDoubles[int(b)%len(fuzzDoubles)], int64(b%3)
		var id [2]any
		switch {
		case k == 0:
		case !dbl:
			id[0] = ints[r]
		case doubles[r] != doubles[r]:
			continue
		case doubles[r] == 0:
			id[0] = 0.0
		default:
			id[0] = doubles[r]
		}
		if k > 1 {
			id[1] = small[r]
		}
		ids[r] = &id
	}
	var blocks []block.Block
	switch {
	case k == 0:
	case dbl:
		blocks = append(blocks, &block.Float64Block{Values: doubles, Nulls: nulls})
	default:
		blocks = append(blocks, &block.Int64Block{Values: ints, Nulls: nulls})
	}
	if k > 1 {
		blocks = append(blocks, &block.Int64Block{Values: small, Nulls: nulls})
	}
	return blocks, ids
}

// FuzzJoinTable drives JoinTable.Insert/Probe through random build and
// probe streams — zero keys (the cross product), one or two key columns,
// BIGINT or DOUBLE keys with ±0.0 and NaN, duplicate keys chained through
// next, NULL and NaN keys on both sides (never matching), forced
// collisions and slot growth — checking the matched pairs against a map
// from key identity to build-row set.
func FuzzJoinTable(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, []byte{1, 2, 3, 1}, []byte{1, 4, 0xf0})
	f.Add(uint8(1), uint8(1), false, []byte("same-hash-different-keys"), []byte("probe-it-all"))
	f.Fuzz(func(t *testing.T, d, nkeys uint8, dbl bool, buildData, probeData []byte) {
		k := int(nkeys % 3)
		limit := 2048
		if k == 0 {
			limit = 256 // every probe row meets every build row
		}
		buildData, probeData = buildData[:min(len(buildData), limit)], probeData[:min(len(probeData), limit)]
		keyTypes := []*types.Type{types.Bigint, types.Bigint}[:k]
		if dbl && k > 0 {
			keyTypes[0] = types.Double
		}
		cols := make([]*Column, k)
		for c, kt := range keyTypes {
			cols[c], _ = NewColumn(kt)
		}
		jt := NewJoinTable(cols)
		jt.dampen = fuzzDampens[int(d)%len(fuzzDampens)]
		keys := []int{0, 1}[:k]
		var hasher Hasher
		batch := func(data []byte) ([]*View, []*[2]any, []uint64, int) {
			n := min(len(data), 32)
			blocks, ids := decodeJoinKeys(data[:n], k, dbl)
			views := make([]*View, k)
			for c := range views {
				views[c] = &View{}
				Of(blocks[c], views[c])
			}
			hashes := make([]uint64, n)
			hasher.HashPage(&block.Page{Blocks: blocks, N: n}, keys, hashes)
			return views, ids, hashes, n
		}
		ref := map[[2]any]map[int32]bool{}
		base := 0
		for len(buildData) > 0 {
			views, ids, hashes, n := batch(buildData)
			buildData = buildData[n:]
			for c, col := range cols {
				col.Append(views[c], n)
			}
			jt.Insert(views, n, hashes, base)
			for i, id := range ids {
				if id == nil {
					continue
				}
				if ref[*id] == nil {
					ref[*id] = map[int32]bool{}
				}
				ref[*id][int32(base+i)] = true
			}
			base += n
		}
		for len(probeData) > 0 {
			views, ids, hashes, n := batch(probeData)
			probeData = probeData[n:]
			probeSel, buildRows := jt.Probe(views, n, hashes, nil, nil)
			got := make([]map[int32]bool, n)
			for i := range probeSel {
				r := probeSel[i]
				if got[r] == nil {
					got[r] = map[int32]bool{}
				}
				if got[r][buildRows[i]] {
					t.Fatalf("probe row %d matched build row %d twice", r, buildRows[i])
				}
				got[r][buildRows[i]] = true
			}
			for r, id := range ids {
				var want map[int32]bool
				if id != nil {
					want = ref[*id]
				}
				if len(got[r]) != len(want) {
					t.Fatalf("probe row %d (key %v): %d matches, want %d", r, id, len(got[r]), len(want))
				}
				for row := range want {
					if !got[r][row] {
						t.Fatalf("probe row %d (key %v): missing build row %d", r, id, row)
					}
				}
			}
		}
	})
}

// fuzzBoolBlock decodes shape+data into a boolean block in one of the
// physical encodings SelectTrue special-cases.
func fuzzBoolBlock(shape uint8, data []byte, n int) block.Block {
	switch shape % 4 {
	case 0: // flat, no nulls
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = data[i]&1 == 1
		}
		return &block.BoolBlock{Values: vals}
	case 1: // flat with nulls
		vals := make([]bool, n)
		nulls := make([]bool, n)
		for i := range vals {
			vals[i] = data[i]&1 == 1
			nulls[i] = data[i]&2 == 2
		}
		return &block.BoolBlock{Values: vals, Nulls: nulls}
	case 2: // dictionary over {true, false}, ids with -1 nulls
		ids := make([]int32, n)
		for i := range ids {
			if data[i]&2 == 2 {
				ids[i] = -1
			} else {
				ids[i] = int32(data[i] & 1)
			}
		}
		return &block.DictionaryBlock{
			Dictionary: &block.BoolBlock{Values: []bool{true, false}},
			Ids:        ids,
		}
	default: // run-length: all-true, all-false or all-null
		var v any
		if data[0]&2 == 0 {
			v = data[0]&1 == 1
		}
		return block.NewRunLengthBlock(block.SingleValue(types.Boolean, v), n)
	}
}

// FuzzSelectTrue checks the WHERE-clause selection kernel against the boxed
// block.Value reference over every boolean encoding: selected positions are
// exactly the rows whose value is true and non-null.
func FuzzSelectTrue(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 1, 3, 2})
	f.Add(uint8(2), []byte{0, 1, 2, 3, 0, 1})
	f.Add(uint8(3), []byte{1})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		n := len(data)
		blk := fuzzBoolBlock(shape, data, n)
		var view View
		if !Of(blk, &view) {
			t.Fatal("no view over boolean block")
		}
		sel := SelectTrue(&view, n, nil)
		var want []int
		for r := 0; r < n; r++ {
			if v, ok := blk.Value(r).(bool); ok && v {
				want = append(want, r)
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("selected %d rows, want %d", len(sel), len(want))
		}
		for i := range sel {
			if sel[i] != want[i] {
				t.Fatalf("position %d: selected row %d, want %d", i, sel[i], want[i])
			}
		}
	})
}

// keyDecoder builds SQL types and boxed values from fuzz bytes; once the
// input runs out every byte reads as 0.
type keyDecoder struct{ data []byte }

func (d *keyDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// fuzzKeyStrings holds the strings whose %v renderings collide once they
// sit in an array or row: the space, "[", and "<nil>", which %v also prints
// for NULL; and, for the order, strings that are prefixes of others, hold a
// 0x00 (the byte the key escapes) or end in 0x01 or 0xff.
var fuzzKeyStrings = []string{"", "a", "b", "c", "x", "a b", "b c", "<nil>", "[", " ", "[a b]",
	"ab", "a\x00", "a\x00b", "\x00", "a\x01", "a\xff", "\xff"}

// fuzzKeyInts and fuzzKeyDoubles are the BIGINT and DOUBLE key domains:
// both signs, the extremes and, for doubles, both zeros, NaNs of two
// payloads and both infinities.
var (
	fuzzKeyInts    = []int64{-1, 0, 1, 2, math.MinInt64, math.MaxInt64, -256, 256}
	fuzzKeyDoubles = append(fuzzDoubles[:len(fuzzDoubles):len(fuzzDoubles)], math.Inf(1), math.Inf(-1), -math.SmallestNonzeroFloat64)
)

// typ decodes a type: bigint, double, varchar or boolean, or — above depth
// 3 — an array, a row of one to three fields, or a map with a scalar key.
func (d *keyDecoder) typ(depth int) *types.Type {
	scalars := []*types.Type{types.Bigint, types.Double, types.Varchar, types.Boolean}
	k := int(d.next() % 7)
	if depth >= 3 {
		k %= len(scalars)
	}
	switch k {
	case 4:
		return types.NewArray(d.typ(depth + 1))
	case 5:
		fields := make([]types.Field, 1+d.next()%3)
		for i := range fields {
			fields[i] = types.Field{Name: string(rune('a' + i)), Type: d.typ(depth + 1)}
		}
		return types.NewRow(fields...)
	case 6:
		return types.NewMap(scalars[d.next()%4], d.typ(depth+1))
	}
	return scalars[k]
}

// value decodes a value of type t: NULL when the first byte is a multiple
// of 5, else from a small domain chosen by the second byte, so equal values
// are common.
func (d *keyDecoder) value(t *types.Type) any {
	if d.next()%5 == 0 {
		return nil
	}
	b := d.next()
	switch t.Kind {
	case types.KindBigint:
		return fuzzKeyInts[int(b)%len(fuzzKeyInts)]
	case types.KindDouble:
		return fuzzKeyDoubles[int(b)%len(fuzzKeyDoubles)]
	case types.KindVarchar:
		return fuzzKeyStrings[int(b)%len(fuzzKeyStrings)]
	case types.KindBoolean:
		return b%2 == 0
	case types.KindArray:
		elems := make([]any, b%4)
		for i := range elems {
			elems[i] = d.value(t.Elem)
		}
		return elems
	case types.KindRow:
		fields := make([]any, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = d.value(f.Type)
		}
		return fields
	default:
		entries := make([][2]any, b%3)
		for i := range entries {
			entries[i] = [2]any{d.value(t.Key), d.value(t.Value)}
		}
		return entries
	}
}

// keyEqual is the reference equality keys must follow: NULL equals NULL,
// −0.0 equals +0.0, a NaN equals a NaN, and arrays, rows and maps are equal
// element by element.
func keyEqual(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (x == y || x != x && y != y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !keyEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case [][2]any:
		y, ok := b.([][2]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !keyEqual(x[i][0], y[i][0]) || !keyEqual(x[i][1], y[i][1]) {
				return false
			}
		}
		return true
	}
	return a == b
}

// keyOrder is the order ORDER BY gives two scalar values of one type,
// written from the decision table rather than from the encoder: NULL after
// everything, integers numerically, a NaN below every number and equal to
// a NaN, −0.0 equal to +0.0, strings bytewise, false before true.
func keyOrder(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return 1
	case b == nil:
		return -1
	}
	less := func(lt, gt bool) int {
		switch {
		case lt:
			return -1
		case gt:
			return 1
		}
		return 0
	}
	switch x := a.(type) {
	case int64:
		y := b.(int64)
		return less(x < y, x > y)
	case float64:
		y := b.(float64)
		if xn, yn := x != x, y != y; xn || yn {
			return less(xn && !yn, yn && !xn)
		}
		return less(x < y, x > y)
	case string:
		y := b.(string)
		return less(x < y, x > y)
	case bool:
		y := b.(bool)
		return less(!x && y, x && !y)
	}
	panic(fmt.Sprintf("keyOrder: %T is not a scalar", a))
}

func complemented(k []byte) []byte {
	out := make([]byte, len(k))
	for i, c := range k {
		out[i] = ^c
	}
	return out
}

// FuzzAppendKey decodes a type and two values of it — scalars including
// ±0.0, NaN, ±Inf, NULL, the integer extremes and strings holding "[", a
// space, "<nil>" or 0x00; arrays, rows and maps up to depth 3 — and checks
// that AppendKey gives the two equal bytes exactly when keyEqual calls them
// equal, that equal values hash equal through Hasher.HashBlock, that
// RowKeys writes the same bytes (complemented for DESC), and, for scalars,
// that bytes.Compare orders the keys as keyOrder orders the values and the
// complemented keys the other way round.
func FuzzAppendKey(f *testing.F) {
	// ['a b'] and ['a', 'b']; [NULL] and ['<nil>']; ('a b', 'c') and
	// ('a', 'b c'); (NULL, 'x') and ('<nil>', 'x'); [-0.0] and [0.0].
	f.Add([]byte{4, 2, 1, 1, 1, 5, 1, 2, 1, 1, 1, 2})
	f.Add([]byte{4, 2, 1, 1, 0, 1, 1, 1, 7})
	f.Add([]byte{5, 1, 2, 2, 1, 0, 1, 5, 1, 3, 1, 0, 1, 1, 1, 6})
	f.Add([]byte{5, 1, 2, 2, 1, 0, 0, 1, 4, 1, 0, 1, 7, 1, 4})
	f.Add([]byte{4, 1, 1, 1, 1, 1, 1, 1, 1, 0})
	// MinInt64 and 2; 'a' and 'a\x00'; NaN and -Inf; -0.0 and +0.0; NULL and 'ab'.
	f.Add([]byte{0, 1, 4, 1, 3})
	f.Add([]byte{2, 1, 1, 1, 12})
	f.Add([]byte{1, 1, 2, 1, 8})
	f.Add([]byte{1, 1, 1, 1, 0})
	f.Add([]byte{2, 0, 1, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		d := &keyDecoder{data: data}
		typ := d.typ(0)
		a, b := d.value(typ), d.value(typ)
		equal := keyEqual(a, b)
		ka, kb := AppendKey(nil, a), AppendKey(nil, b)
		if bytes.Equal(ka, kb) != equal {
			t.Fatalf("%v and %v of %s: equal %v, but keys %x and %x", a, b, typ, equal, ka, kb)
		}
		col := []block.Block{block.FromValues(typ, a, b)}
		asc, desc := RowKeys(col, nil, 2), RowKeys(col, []bool{true}, 2)
		if !bytes.Equal(asc.At(0), ka) || !bytes.Equal(asc.At(1), kb) {
			t.Fatalf("%v and %v of %s: RowKeys %x %x, AppendKey %x %x", a, b, typ, asc.At(0), asc.At(1), ka, kb)
		}
		if !bytes.Equal(desc.At(0), complemented(ka)) || !bytes.Equal(desc.At(1), complemented(kb)) {
			t.Fatalf("%v and %v of %s: DESC RowKeys %x %x are not the complemented keys", a, b, typ, desc.At(0), desc.At(1))
		}
		if _, scalar := KindOf(typ); scalar {
			want := keyOrder(a, b)
			if got := bytes.Compare(ka, kb); got != want {
				t.Fatalf("%v and %v of %s: keys %x and %x compare %d, want %d", a, b, typ, ka, kb, got, want)
			}
			if got := bytes.Compare(complemented(ka), complemented(kb)); got != -want {
				t.Fatalf("%v and %v of %s: complemented keys compare %d, want %d", a, b, typ, got, -want)
			}
		}
		if !equal {
			return
		}
		var h Hasher
		hashes := make([]uint64, 2)
		h.HashBlock(col[0], 2, hashes)
		if hashes[0] != hashes[1] {
			t.Fatalf("equal %v and %v of %s hash %x and %x", a, b, typ, hashes[0], hashes[1])
		}
	})
}
