package vector

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// encodeInt64 wraps the same logical int64 column in each encoding the view
// layer understands.
func encodeInt64(vals []int64, nulls []bool) []block.Block {
	n := len(vals)
	flat := &block.Int64Block{Values: vals, Nulls: nulls}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	dict := &block.DictionaryBlock{Dictionary: &block.Int64Block{Values: vals, Nulls: nulls}, Ids: ids}
	lazy := block.NewLazyBlock(n, func() block.Block { return flat })
	return []block.Block{flat, dict, lazy}
}

func TestHashEncodingIndependent(t *testing.T) {
	vals := []int64{3, -1, 3, 0, 42, math.MaxInt64}
	nulls := []bool{false, true, false, false, false, false}
	n := len(vals)
	var want []uint64
	for _, b := range encodeInt64(vals, nulls) {
		var h Hasher
		out := make([]uint64, n)
		h.HashPage(&block.Page{Blocks: []block.Block{b}, N: n}, []int{0}, out)
		if want == nil {
			want = out
			continue
		}
		for r := range out {
			if out[r] != want[r] {
				t.Fatalf("encoding %T row %d: hash %x != flat %x", b, r, out[r], want[r])
			}
		}
	}
	// The boxed fallback must agree with the typed paths too.
	var h Hasher
	for r := 0; r < n; r++ {
		var v any
		if !nulls[r] {
			v = vals[r]
		}
		if got := combine(0, h.hashValue(v)); got != want[r] {
			t.Fatalf("boxed row %d: hash %x != typed %x", r, got, want[r])
		}
	}
}

func TestHashRLEAndFloatBits(t *testing.T) {
	var h Hasher
	n := 4
	rle := block.NewRunLengthBlock(&block.Float64Block{Values: []float64{2.5}}, n)
	flat := &block.Float64Block{Values: []float64{2.5, 2.5, 2.5, 2.5}}
	a, b := make([]uint64, n), make([]uint64, n)
	h.HashBlock(rle, n, a)
	h.HashBlock(flat, n, b)
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("RLE row %d hash %x != flat %x", r, a[r], b[r])
		}
	}
	// Keys hash as `=` compares: +0 and -0 together. Every NaN hashes as
	// one, whatever its payload, so GROUP BY keeps them in one group.
	nan1, nan2 := h.hashValue(math.NaN()), h.hashValue(math.Float64frombits(0x7ff8000000000bad))
	if nan1 != nan2 {
		t.Fatalf("NaN payloads hash apart: %x vs %x", nan1, nan2)
	}
	if h.hashValue(0.0) != h.hashValue(math.Copysign(0, -1)) {
		t.Fatal("+0.0 and -0.0 hash apart, but they are `=`")
	}
	zeros := make([]uint64, 2)
	h.HashBlock(&block.Float64Block{Values: []float64{0, math.Copysign(0, -1)}}, 2, zeros)
	if zeros[0] != zeros[1] {
		t.Fatal("typed path: +0.0 and -0.0 hash apart")
	}
}

func TestGroupTableVsMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gt, ok := NewGroupTable([]*types.Type{types.Bigint, types.Varchar})
	if !ok {
		t.Fatal("NewGroupTable failed")
	}
	gt.dampen = 0xf // force collisions through the equality path
	ref := map[[2]any]int32{}
	var h Hasher
	strs := []string{"a", "bb", "ccc", ""}
	for page := 0; page < 20; page++ {
		n := 1 + rng.Intn(200)
		iv := make([]int64, n)
		inulls := make([]bool, n)
		sv := make([]string, n)
		snulls := make([]bool, n)
		for r := 0; r < n; r++ {
			iv[r] = int64(rng.Intn(7))
			inulls[r] = rng.Intn(5) == 0
			sv[r] = strs[rng.Intn(len(strs))]
			snulls[r] = rng.Intn(7) == 0
		}
		p := &block.Page{Blocks: []block.Block{
			&block.Int64Block{Values: iv, Nulls: inulls},
			&block.VarcharBlock{Values: sv, Nulls: snulls},
		}, N: n}
		hashes := make([]uint64, n)
		h.HashPage(p, []int{0, 1}, hashes)
		views := make([]*View, 2)
		for c := range views {
			views[c] = &View{}
			if !Of(p.Blocks[c], views[c]) {
				t.Fatal("Of failed on flat block")
			}
		}
		ids := make([]int32, n)
		gt.Assign(views, n, hashes, ids)
		for r := 0; r < n; r++ {
			var key [2]any
			if !inulls[r] {
				key[0] = iv[r]
			}
			if !snulls[r] {
				key[1] = sv[r]
			}
			want, seen := ref[key]
			if !seen {
				want = int32(len(ref))
				ref[key] = want
			}
			if ids[r] != want {
				t.Fatalf("page %d row %d key %v: id %d, want %d", page, r, key, ids[r], want)
			}
		}
	}
	if gt.Len() != len(ref) {
		t.Fatalf("table has %d groups, reference %d", gt.Len(), len(ref))
	}
	// Key emission round-trips the stored values.
	for key, id := range ref {
		got := [2]any{gt.KeyBlock(0, int(id), int(id)+1).Value(0), gt.KeyBlock(1, int(id), int(id)+1).Value(0)}
		if got != key {
			t.Fatalf("group %d: KeyBlock %v, want %v", id, got, key)
		}
	}
}

func TestJoinTableVsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store, _ := NewColumn(types.Bigint)
	jt := NewJoinTable([]*Column{store})
	jt.dampen = 0x7
	var h Hasher
	var buildVals []any // nil = NULL
	for page := 0; page < 5; page++ {
		n := 1 + rng.Intn(60)
		vals := make([]int64, n)
		nulls := make([]bool, n)
		for r := 0; r < n; r++ {
			vals[r] = int64(rng.Intn(9))
			nulls[r] = rng.Intn(6) == 0
			if nulls[r] {
				buildVals = append(buildVals, nil)
			} else {
				buildVals = append(buildVals, vals[r])
			}
		}
		b := &block.Int64Block{Values: vals, Nulls: nulls}
		v := &View{}
		Of(b, v)
		hashes := make([]uint64, n)
		h.HashBlock(b, n, hashes)
		base := store.Len()
		store.Append(v, n)
		jt.Insert([]*View{v}, n, hashes, base)
	}

	pn := 40
	pv := make([]int64, pn)
	pnulls := make([]bool, pn)
	for r := 0; r < pn; r++ {
		pv[r] = int64(rng.Intn(12))
		pnulls[r] = rng.Intn(6) == 0
	}
	pb := &block.Int64Block{Values: pv, Nulls: pnulls}
	v := &View{}
	Of(pb, v)
	hashes := make([]uint64, pn)
	h.HashBlock(pb, pn, hashes)
	probeSel, buildRows := jt.Probe([]*View{v}, pn, hashes, nil, nil)

	got := map[[2]int]bool{}
	for i, r := range probeSel {
		got[[2]int{r, int(buildRows[i])}] = true
	}
	want := map[[2]int]bool{}
	for r := 0; r < pn; r++ {
		if pnulls[r] {
			continue
		}
		for brow, bval := range buildVals {
			if bval == pv[r] {
				want[[2]int{r, brow}] = true
			}
		}
	}
	if len(got) != len(want) || len(got) != len(probeSel) {
		t.Fatalf("probe found %d pairs (%d unique), nested loop %d", len(probeSel), len(got), len(want))
	}
	for pair := range want {
		if !got[pair] {
			t.Fatalf("missing match %v", pair)
		}
	}
}

func TestSelectTrue(t *testing.T) {
	b := &block.BoolBlock{Values: []bool{true, false, true, true}, Nulls: []bool{false, false, true, false}}
	v := &View{}
	Of(b, v)
	sel := SelectTrue(v, 4, nil)
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 3 {
		t.Fatalf("SelectTrue = %v, want [0 3]", sel)
	}
}

func TestAggsMatchSemantics(t *testing.T) {
	// Two groups; group 1 sees only nulls for the argument.
	ids := []int32{0, 1, 0, 1}
	argVals := []int64{10, 0, 32, 0}
	argNulls := []bool{false, true, false, true}
	arg := []block.Block{&block.Int64Block{Values: argVals, Nulls: argNulls}}

	cases := []struct {
		name      string
		wantG0    any
		wantG1    any // nil = SQL NULL
		finalType Kind
	}{
		{"count", int64(2), int64(0), KindInt64},
		{"sum", int64(42), nil, KindInt64},
		{"min", int64(10), nil, KindInt64},
		{"max", int64(32), nil, KindInt64},
		{"avg", 21.0, nil, KindFloat64},
	}
	for _, tc := range cases {
		a, ok := NewAgg(tc.name, types.Bigint)
		if !ok {
			t.Fatalf("NewAgg(%s) not supported", tc.name)
		}
		a.Grow(2)
		if err := a.AddRaw(ids, arg, len(ids)); err != nil {
			t.Fatal(err)
		}
		fin := a.EmitFinal(0, 2)
		if got := fin.Value(0); got != tc.wantG0 {
			t.Fatalf("%s group 0 = %v (%T), want %v", tc.name, got, got, tc.wantG0)
		}
		if got := fin.Value(1); got != tc.wantG1 {
			t.Fatalf("%s group 1 = %v (%T), want %v", tc.name, got, got, tc.wantG1)
		}
		// Merging the emitted intermediates into a fresh aggregator must
		// reproduce the final (the partial -> final contract).
		b, _ := NewAgg(tc.name, types.Bigint)
		b.Grow(2)
		inter := a.EmitIntermediate(0, 2)
		if err := b.AddIntermediate(ids[:2], inter, 2); err != nil {
			t.Fatalf("%s AddIntermediate: %v", tc.name, err)
		}
		fin2 := b.EmitFinal(0, 2)
		if fin2.Value(0) != tc.wantG0 || fin2.Value(1) != tc.wantG1 {
			t.Fatalf("%s merge round-trip: got (%v, %v), want (%v, %v)",
				tc.name, fin2.Value(0), fin2.Value(1), tc.wantG0, tc.wantG1)
		}
		// The intermediate of a group that saw only NULLs.
		switch empty := inter.Value(1); tc.name {
		case "count":
			if empty != int64(0) {
				t.Fatalf("count intermediate for empty group must be 0, got %v", empty)
			}
		case "sum", "min", "max":
			if empty != nil {
				t.Fatalf("%s intermediate for null group must be nil, got %v", tc.name, empty)
			}
		case "avg":
			pair := empty.([]any)
			if pair[0] != 0.0 || pair[1] != int64(0) {
				t.Fatalf("avg intermediate = %v, want [0 0]", pair)
			}
		}
	}
}

func TestMinMaxFloatNaN(t *testing.T) {
	a, _ := NewAgg("max", types.Double)
	a.Grow(1)
	if err := a.AddRaw([]int32{0, 0, 0}, []block.Block{&block.Float64Block{Values: []float64{1.5, math.NaN(), 2.5}}}, 3); err != nil {
		t.Fatal(err)
	}
	if got := a.EmitFinal(0, 1).Value(0); got != 2.5 {
		t.Fatalf("max with NaN = %v, want 2.5", got)
	}
	// NaN orders below every number, wherever it arrives: min is NaN.
	b, _ := NewAgg("min", types.Double)
	b.Grow(1)
	if err := b.AddRaw([]int32{0, 0}, []block.Block{&block.Float64Block{Values: []float64{math.NaN(), 1.0}}}, 2); err != nil {
		t.Fatal(err)
	}
	got := b.EmitFinal(0, 1).Value(0)
	if f, ok := got.(float64); !ok || !math.IsNaN(f) {
		t.Fatalf("min(NaN, 1.0) = %v, want NaN", got)
	}
}

func TestColumnBlockRoundTrip(t *testing.T) {
	c, _ := NewColumn(types.Double)
	src := &View{}
	Of(&block.Float64Block{Values: []float64{1.5, 0, -2.25}, Nulls: []bool{false, true, false}}, src)
	c.Append(src, 3)
	out := c.Block(0, 3)
	want := []any{1.5, nil, -2.25}
	for i, w := range want {
		if out.Value(i) != w {
			t.Fatalf("row %d = %v, want %v", i, out.Value(i), w)
		}
	}
	g := c.Gather([]int32{2, 0, 1})
	if g.Value(0) != -2.25 || g.Value(1) != 1.5 || g.Value(2) != nil {
		t.Fatalf("gather = %v %v %v", g.Value(0), g.Value(1), g.Value(2))
	}
}

func TestGroupTableGrowAndReset(t *testing.T) {
	gt, _ := NewGroupTable([]*types.Type{types.Bigint})
	var h Hasher
	n := 1000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	b := &block.Int64Block{Values: vals}
	v := &View{}
	Of(b, v)
	hashes := make([]uint64, n)
	h.HashBlock(b, n, hashes)
	ids := make([]int32, n)
	gt.Assign([]*View{v}, n, hashes, ids)
	if gt.Len() != n {
		t.Fatalf("Len = %d, want %d", gt.Len(), n)
	}
	// Re-assigning the same keys yields the same ids.
	ids2 := make([]int32, n)
	gt.Assign([]*View{v}, n, hashes, ids2)
	for i := range ids {
		if ids[i] != ids2[i] {
			t.Fatalf("row %d: id changed %d -> %d", i, ids[i], ids2[i])
		}
	}
	if gt.KeyBytes() <= 0 {
		t.Fatal("byte accounting empty")
	}
	gt.Reset()
	if gt.Len() != 0 {
		t.Fatalf("Len after Reset = %d", gt.Len())
	}
	gt.Assign([]*View{v}, n, hashes, ids)
	if gt.Len() != n {
		t.Fatalf("Len after rebuild = %d, want %d", gt.Len(), n)
	}
}

// TestAggResetClearsState is the spill-path regression: Reset truncates the
// state slices in place, and the next Grow must expose zeroed state — not
// the pre-spill groups' counts and sums.
func TestAggResetClearsState(t *testing.T) {
	for _, name := range []string{"count", "sum", "min", "max", "avg"} {
		agg, ok := NewAgg(name, types.Bigint)
		if !ok {
			t.Fatalf("NewAgg(%s) not ok", name)
		}
		arg := []block.Block{&block.Int64Block{Values: []int64{7, 8, 9}}}
		agg.Grow(3)
		if err := agg.AddRaw([]int32{0, 1, 2}, arg, 3); err != nil {
			t.Fatal(err)
		}
		before := agg.EmitIntermediate(0, 3)
		wantBefore := fmt.Sprint(before.Value(0), before.Value(1), before.Value(2))
		agg.Reset()
		agg.Grow(3)
		stale := agg.EmitIntermediate(0, 3)
		for g := 0; g < 3; g++ {
			if v := stale.Value(g); v != nil && v != int64(0) {
				if pair, ok := v.([]any); !ok || pair[0] != float64(0) || pair[1] != int64(0) {
					t.Errorf("%s: group %d holds stale state %v after Reset+Grow", name, g, v)
				}
			}
		}
		if err := agg.AddRaw([]int32{0, 1, 2}, []block.Block{&block.Int64Block{Values: []int64{1, 2, 3}}}, 3); err != nil {
			t.Fatal(err)
		}
		// A block emitted before Reset keeps its values: a spill merge
		// resets the aggregators between the pages it emits.
		if got := fmt.Sprint(before.Value(0), before.Value(1), before.Value(2)); got != wantBefore {
			t.Errorf("%s: block emitted before Reset changed from %s to %s", name, wantBefore, got)
		}
		want := map[string]any{"count": int64(1), "sum": int64(2), "min": int64(2), "max": int64(2)}
		if w, ok := want[name]; ok {
			if got := agg.EmitIntermediate(1, 2).Value(0); got != w {
				t.Errorf("%s: group 1 after Reset = %v, want %v", name, got, w)
			}
		}
	}
}

// A Partial over all rows and the merge of Partials over chunks of them emit
// the same groups: NULL, NaN and ±0.0 keys, dictionary-coded strings, array
// and row keys (grouped on their key bytes, emitting the first-seen value),
// a bare NULL key, a dictionary over a dictionary, and a keyless Partial's
// one group even over no row.
func TestPartialMergeMatchesOneTable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 600
	keyF, keyS, keyA, arg := make([]float64, n), make([]int32, n), make([]int, n), make([]int64, n)
	nullF, nullArg, nulls := make([]bool, n), make([]bool, n), make([]bool, n)
	dict := &block.VarcharBlock{Values: []string{"a", "b", "c"}}
	arrays := []any{nil, []any{}, []any{int64(1)}, []any{int64(1), nil}, []any{int64(2)}}
	rows := []any{nil, []any{"x", 0.0}, []any{"x", math.Copysign(0, -1)}, []any{"x", math.NaN()}, []any{nil, 1.5}, []any{"y", 1.5}}
	for i := 0; i < n; i++ {
		keyF[i] = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5}[r.Intn(4)]
		nullF[i] = r.Intn(7) == 0
		keyS[i] = int32(r.Intn(4)) - 1 // -1: NULL
		keyA[i] = r.Intn(len(arrays) * len(rows))
		arg[i], nullArg[i], nulls[i] = int64(r.Intn(100)), r.Intn(5) == 0, true
	}
	arrayType := types.NewArray(types.Bigint)
	rowType := types.NewRow(types.Field{Name: "a", Type: types.Varchar}, types.Field{Name: "b", Type: types.Double})
	doubles := func(from, to int) block.Block {
		return &block.Float64Block{Values: keyF[from:to], Nulls: nullF[from:to]}
	}
	strs := func(from, to int) block.Block { return &block.DictionaryBlock{Dictionary: dict, Ids: keyS[from:to]} }
	inputs := []struct {
		name      string
		keys      []*types.Type
		blocks    func(from, to int) []block.Block
		minGroups int
	}{
		{"double, varchar", []*types.Type{types.Double, types.Varchar}, func(from, to int) []block.Block {
			return []block.Block{doubles(from, to), strs(from, to)}
		}, 10},
		{"keyless", nil, func(int, int) []block.Block { return nil }, 1},
		{"array, row", []*types.Type{arrayType, rowType}, func(from, to int) []block.Block {
			var as, rs []any
			for _, k := range keyA[from:to] {
				as, rs = append(as, arrays[k%len(arrays)]), append(rs, rows[k/len(arrays)])
			}
			return []block.Block{block.FromValues(arrayType, as...), block.FromValues(rowType, rs...)}
		}, 20},
		{"bare NULL, varchar", []*types.Type{types.Unknown, types.Varchar}, func(from, to int) []block.Block {
			return []block.Block{&block.Int64Block{Values: arg[from:to], Nulls: nulls[from:to]}, strs(from, to)}
		}, 4},
		{"dictionary over a dictionary, double", []*types.Type{types.Varchar, types.Double}, func(from, to int) []block.Block {
			inner := &block.DictionaryBlock{Dictionary: dict, Ids: []int32{2, 0, -1, 1}}
			return []block.Block{&block.DictionaryBlock{Dictionary: inner, Ids: keyS[from:to]}, doubles(from, to)}
		}, 10},
	}
	newPartial := func(keys []*types.Type) *Partial {
		var aggs []Agg
		for _, s := range []struct {
			fn  string
			arg *types.Type
		}{{"count", nil}, {"sum", types.Bigint}, {"min", types.Bigint}, {"max", types.Varchar}} {
			agg, ok := NewAgg(s.fn, s.arg)
			if !ok {
				t.Fatalf("no kernel for %s(%v)", s.fn, s.arg)
			}
			aggs = append(aggs, agg)
		}
		return NewPartial(keys, aggs)
	}
	args := func(from, to int) []block.Block {
		a := &block.Int64Block{Values: arg[from:to], Nulls: nullArg[from:to]}
		return []block.Block{nil, a, a, strs(from, to)}
	}
	emit := func(p *Partial) []string {
		page := p.Emit(0, p.Len(), true)
		var out []string
		for i := 0; i < page.Count(); i++ {
			out = append(out, fmt.Sprintf("%v", page.Row(i)))
		}
		sort.Strings(out)
		return out
	}
	for _, in := range inputs {
		whole := newPartial(in.keys)
		if err := whole.AddRows(in.blocks(0, n), args(0, n), n); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		merged := newPartial(in.keys)
		for from := 0; from < n; from += 130 {
			chunk := newPartial(in.keys)
			to := min(from+130, n)
			if err := chunk.AddRows(in.blocks(from, to), args(from, to), to-from); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			if err := merged.AddIntermediate(chunk.Emit(0, chunk.Len(), false)); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
		}
		if got, want := emit(merged), emit(whole); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merged %v, whole %v", in.name, got, want)
		}
		if groups := whole.Len(); groups < in.minGroups {
			t.Errorf("%s: only %d groups: the keys are not exercised", in.name, groups)
		}
		empty := newPartial(in.keys)
		if got, want := empty.Emit(0, empty.Len(), false).Count(), map[bool]int{true: 0, false: 1}[len(in.keys) > 0]; got != want {
			t.Errorf("%s: a Partial of no row emits %d rows, want %d", in.name, got, want)
		}
	}
	if _, ok := NewAgg("sum", nil); ok {
		t.Error("sum without an argument was bound")
	}
}
