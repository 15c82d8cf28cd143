package vector

// Fuzz harnesses for the open-addressing hash tables and the WHERE
// selection kernel. Each target decodes the fuzz input into batched
// operations, runs them through the vectorized structure, and checks
// every observable result against a straightforward reference
// (a Go map, or the boxed block.Value path). The `dampen` selector shrinks
// the stored hash space down to a handful of values, forcing the collision
// and slot-growth paths that random 64-bit hashes would almost never take.
//
// Seed corpus lives in testdata/fuzz/<Target>/; CI runs each target briefly
// (make fuzz-smoke), and `go test -fuzz=<Target> ./internal/execution/vector/`
// digs deeper locally.

import (
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

// FuzzGroupTable drives GroupTable.Assign through random key streams —
// duplicates, NULL keys, forced hash collisions, slot growth past the
// initial 64, and Reset (the post-spill rebuild) — checking the key→id
// mapping against a map: same key, same dense id; new key, next id; stored
// keys round-trip through KeyValues.
func FuzzGroupTable(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 1, 2, 3, 0xf0})
	f.Add(uint8(1), []byte("collide-all-hashes-through-equality"))
	f.Add(uint8(2), []byte{0, 61, 122, 0xff, 0, 61, 122}) // dup values, then Reset
	f.Fuzz(func(t *testing.T, d uint8, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		gt, ok := NewGroupTable([]*types.Type{types.Bigint})
		if !ok {
			t.Fatal("bigint key rejected")
		}
		gt.dampen = fuzzDampens[int(d)%len(fuzzDampens)]
		ref := map[fuzzKey]int32{}
		var hasher Hasher
		for len(data) > 0 {
			if data[0] == 0xff { // spill boundary: drop all state, rebuild
				gt.Reset()
				ref = map[fuzzKey]int32{}
				data = data[1:]
				continue
			}
			n := min(len(data), 32)
			blk, keys := decodeKeys(data[:n])
			data = data[n:]
			var view View
			if !Of(blk, &view) {
				t.Fatal("no view over flat int64")
			}
			hashes := make([]uint64, n)
			hasher.HashPage(block.NewPage(blk), []int{0}, hashes)
			ids := make([]int32, n)
			gt.Assign([]*View{&view}, n, hashes, ids)
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
		dst := make([]any, 1)
		for g := 0; g < gt.Len(); g++ {
			gt.KeyValues(g, dst)
			k := inv[int32(g)]
			switch {
			case k.null && dst[0] != nil:
				t.Fatalf("group %d: stored %v, want NULL", g, dst[0])
			case !k.null && dst[0] != k.v:
				t.Fatalf("group %d: stored %v, want %d", g, dst[0], k.v)
			}
		}
	})
}

// FuzzJoinTable drives JoinTable.Insert/Probe through random build and
// probe streams — duplicate keys chained through next, NULL keys on both
// sides (never matching), forced collisions and slot growth — checking the
// matched pairs against a map from key to build-row set.
func FuzzJoinTable(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 1}, []byte{1, 4, 0xf0})
	f.Add(uint8(1), []byte("same-hash-different-keys"), []byte("probe-it-all"))
	f.Fuzz(func(t *testing.T, d uint8, buildData, probeData []byte) {
		if len(buildData) > 2048 {
			buildData = buildData[:2048]
		}
		if len(probeData) > 2048 {
			probeData = probeData[:2048]
		}
		col, ok := NewColumn(types.Bigint)
		if !ok {
			t.Fatal("bigint column rejected")
		}
		jt := NewJoinTable([]*Column{col})
		jt.dampen = fuzzDampens[int(d)%len(fuzzDampens)]
		ref := map[int64]map[int32]bool{}
		var hasher Hasher
		base := 0
		for len(buildData) > 0 {
			n := min(len(buildData), 32)
			blk, keys := decodeKeys(buildData[:n])
			buildData = buildData[n:]
			var view View
			Of(blk, &view)
			hashes := make([]uint64, n)
			hasher.HashPage(block.NewPage(blk), []int{0}, hashes)
			col.Append(&view, n)
			jt.Insert([]*View{&view}, n, hashes, base)
			for i, k := range keys {
				if k.null {
					continue
				}
				if ref[k.v] == nil {
					ref[k.v] = map[int32]bool{}
				}
				ref[k.v][int32(base+i)] = true
			}
			base += n
		}
		for len(probeData) > 0 {
			n := min(len(probeData), 32)
			blk, keys := decodeKeys(probeData[:n])
			probeData = probeData[n:]
			var view View
			Of(blk, &view)
			hashes := make([]uint64, n)
			hasher.HashPage(block.NewPage(blk), []int{0}, hashes)
			matched := make([]bool, n)
			probeSel, buildRows := jt.Probe([]*View{&view}, n, hashes, nil, nil, matched)
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
			for r, k := range keys {
				var want map[int32]bool
				if !k.null {
					want = ref[k.v]
				}
				if len(got[r]) != len(want) {
					t.Fatalf("probe row %d (key %v): %d matches, want %d", r, k, len(got[r]), len(want))
				}
				for row := range want {
					if !got[r][row] {
						t.Fatalf("probe row %d (key %v): missing build row %d", r, k, row)
					}
				}
				if matched[r] != (len(want) > 0) {
					t.Fatalf("probe row %d (key %v): matched=%v, want %v", r, k, matched[r], len(want) > 0)
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
