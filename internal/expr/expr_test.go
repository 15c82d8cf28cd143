package expr

import (
	"reflect"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

func bigint(v int64) *Constant { return NewConstant(v, types.Bigint) }
func dbl(v float64) *Constant  { return NewConstant(v, types.Double) }
func str(v string) *Constant   { return NewConstant(v, types.Varchar) }
func boolean(v bool) *Constant { return NewConstant(v, types.Boolean) }
func col(ch int, t *types.Type) *Variable {
	return NewVariable("c"+string(rune('0'+ch)), ch, t)
}

func evalConst(t *testing.T, e RowExpression) any {
	t.Helper()
	v, err := EvalRowValue(e, nil)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr RowExpression
		want any
	}{
		{MustCall("add", bigint(2), bigint(3)), int64(5)},
		{MustCall("subtract", bigint(2), bigint(3)), int64(-1)},
		{MustCall("multiply", bigint(4), bigint(3)), int64(12)},
		{MustCall("divide", bigint(7), bigint(2)), int64(3)},
		{MustCall("modulus", bigint(7), bigint(2)), int64(1)},
		{MustCall("add", dbl(1.5), dbl(2.25)), 3.75},
		{MustCall("divide", dbl(1.0), dbl(4.0)), 0.25},
		{MustCall("negate", bigint(5)), int64(-5)},
		{MustCall("negate", dbl(2.5)), -2.5},
	}
	for _, c := range cases {
		if got := evalConst(t, c.expr); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	_, err := EvalRowValue(MustCall("divide", bigint(1), bigint(0)), nil)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("expected division by zero, got %v", err)
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		expr RowExpression
		want bool
	}{
		{MustCall("eq", bigint(2), bigint(2)), true},
		{MustCall("neq", bigint(2), bigint(3)), true},
		{MustCall("lt", str("a"), str("b")), true},
		{MustCall("gte", dbl(2.5), dbl(2.5)), true},
		{MustCall("gt", boolean(true), boolean(false)), true},
		{MustCall("lte", bigint(5), bigint(4)), false},
	}
	for _, c := range cases {
		if got := evalConst(t, c.expr); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestNullPropagation(t *testing.T) {
	null := Null()
	if got := evalConst(t, MustCall("eq", bigint(1), null)); got != nil {
		t.Errorf("1 = NULL should be NULL, got %v", got)
	}
	if got := evalConst(t, MustCall("add", null, bigint(1))); got != nil {
		t.Errorf("NULL + 1 should be NULL, got %v", got)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := Null()
	tr, fa := boolean(true), boolean(false)
	nullCmp := MustCall("eq", bigint(1), null) // NULL boolean
	cases := []struct {
		expr RowExpression
		want any
	}{
		{And(tr, tr), true},
		{And(tr, fa), false},
		{And(fa, nullCmp), false}, // FALSE AND NULL = FALSE
		{And(nullCmp, fa), false}, // NULL AND FALSE = FALSE
		{And(tr, nullCmp), nil},   // TRUE AND NULL = NULL
		{Or(tr, nullCmp), true},   // TRUE OR NULL = TRUE
		{Or(nullCmp, tr), true},   // NULL OR TRUE = TRUE
		{Or(fa, nullCmp), nil},    // FALSE OR NULL = NULL
		{Not(nullCmp), nil},       // NOT NULL = NULL
		{Not(tr), false},
		{Or(fa, fa), false},
	}
	for _, c := range cases {
		if got := evalConst(t, c.expr); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestSpecialForms(t *testing.T) {
	null := Null()
	isNull := &SpecialForm{Form: FormIsNull, Args: []RowExpression{null}, Ret: types.Boolean}
	if got := evalConst(t, isNull); got != true {
		t.Errorf("NULL IS NULL = %v", got)
	}
	ifExpr := &SpecialForm{Form: FormIf, Args: []RowExpression{boolean(true), bigint(1), bigint(2)}, Ret: types.Bigint}
	if got := evalConst(t, ifExpr); got != int64(1) {
		t.Errorf("IF = %v", got)
	}
	ifNoElse := &SpecialForm{Form: FormIf, Args: []RowExpression{boolean(false), bigint(1)}, Ret: types.Bigint}
	if got := evalConst(t, ifNoElse); got != nil {
		t.Errorf("IF without else = %v", got)
	}
	coalesce := &SpecialForm{Form: FormCoalesce, Args: []RowExpression{null, bigint(7), bigint(9)}, Ret: types.Bigint}
	if got := evalConst(t, coalesce); got != int64(7) {
		t.Errorf("COALESCE = %v", got)
	}
	in := &SpecialForm{Form: FormIn, Args: []RowExpression{bigint(2), bigint(1), bigint(2), bigint(3)}, Ret: types.Boolean}
	if got := evalConst(t, in); got != true {
		t.Errorf("IN = %v", got)
	}
	notIn := &SpecialForm{Form: FormIn, Args: []RowExpression{bigint(9), bigint(1), null}, Ret: types.Boolean}
	if got := evalConst(t, notIn); got != nil {
		t.Errorf("9 IN (1, NULL) should be NULL, got %v", got)
	}
	between := &SpecialForm{Form: FormBetween, Args: []RowExpression{bigint(5), bigint(1), bigint(10)}, Ret: types.Boolean}
	if got := evalConst(t, between); got != true {
		t.Errorf("BETWEEN = %v", got)
	}
}

func TestDereference(t *testing.T) {
	rowType := types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
		types.Field{Name: "city_id", Type: types.Bigint},
	)
	base := col(0, rowType)
	deref, err := Dereference(base, "city_id")
	if err != nil {
		t.Fatal(err)
	}
	if deref.TypeOf() != types.Bigint {
		t.Errorf("deref type = %v", deref.TypeOf())
	}
	page := block.NewPage(block.FromValues(rowType,
		[]any{"d1", int64(12)},
		[]any{"d2", int64(7)},
		nil,
	))
	b, err := Eval(deref, page)
	if err != nil {
		t.Fatal(err)
	}
	if b.Value(0) != int64(12) || b.Value(1) != int64(7) || !b.IsNull(2) {
		t.Errorf("deref values: %v %v null=%v", b.Value(0), b.Value(1), b.IsNull(2))
	}
	if _, err := Dereference(base, "missing"); err == nil {
		t.Error("expected error for missing field")
	}
	if _, err := Dereference(col(0, types.Bigint), "x"); err == nil {
		t.Error("expected error for non-row base")
	}
}

func TestNestedDereferenceChain(t *testing.T) {
	inner := types.NewRow(types.Field{Name: "lat", Type: types.Double})
	outer := types.NewRow(types.Field{Name: "geo", Type: inner})
	d1, err := Dereference(col(0, outer), "geo")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Dereference(d1, "lat")
	if err != nil {
		t.Fatal(err)
	}
	page := block.NewPage(block.FromValues(outer, []any{[]any{37.7}}, []any{nil}))
	b, err := Eval(d2, page)
	if err != nil {
		t.Fatal(err)
	}
	if b.Value(0) != 37.7 || !b.IsNull(1) {
		t.Errorf("chain: %v, null=%v", b.Value(0), b.IsNull(1))
	}
}

func TestVectorizedFilter(t *testing.T) {
	page := block.NewPage(
		&block.Int64Block{Values: []int64{5, 10, 12, 3, 12}},
		&block.VarcharBlock{Values: []string{"a", "b", "c", "d", "e"}},
	)
	pred := MustCall("eq", col(0, types.Bigint), bigint(12))
	pos, err := EvalFilter(pred, page)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []int{2, 4}) {
		t.Errorf("positions = %v", pos)
	}
}

// Vectorized vs row-at-a-time expression evaluation.
func BenchmarkExprVectorizedVsRow(b *testing.B) {
	n := 8192
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	page := block.NewPage(&block.Int64Block{Values: vals})
	pred := MustCall("eq", col(0, types.Bigint), bigint(42))
	b.Run("Vectorized", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			if _, err := EvalFilter(pred, page); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RowAtATime", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			count := 0
			for r := 0; r < n; r++ {
				v, err := EvalRowValue(pred, page.Row(r))
				if err != nil {
					b.Fatal(err)
				}
				if v == true {
					count++
				}
			}
		}
	})
}

func TestStringFunctions(t *testing.T) {
	cases := []struct {
		expr RowExpression
		want any
	}{
		{MustCall("lower", str("AbC")), "abc"},
		{MustCall("upper", str("AbC")), "ABC"},
		{MustCall("length", str("hello")), int64(5)},
		{MustCall("concat", str("a"), str("b"), str("c")), "abc"},
		{MustCall("substr", str("hello"), bigint(2)), "ello"},
		{MustCall("substr", str("hello"), bigint(2), bigint(3)), "ell"},
		{MustCall("trim", str("  x ")), "x"},
		{MustCall("strpos", str("hello"), str("ll")), int64(3)},
		{MustCall("replace", str("aaa"), str("a"), str("b")), "bbb"},
		{MustCall("reverse", str("abc")), "cba"},
		{MustCall("like", str("san francisco"), str("san%")), true},
		{MustCall("like", str("oakland"), str("san%")), false},
		{MustCall("like", str("cat"), str("c_t")), true},
	}
	for _, c := range cases {
		if got := evalConst(t, c.expr); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestCasts(t *testing.T) {
	cases := []struct {
		expr RowExpression
		want any
	}{
		{MustCall("to_double", bigint(3)), 3.0},
		{MustCall("to_bigint", dbl(3.9)), int64(3)},
		{MustCall("to_bigint", str("42")), int64(42)},
		{MustCall("to_varchar", bigint(7)), "7"},
		{MustCall("to_boolean", str("true")), true},
	}
	for _, c := range cases {
		if got := evalConst(t, c.expr); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	d := evalConst(t, MustCall("to_date", str("2017-08-01")))
	if want, _ := EpochDate("2017-08-01"); d != want {
		t.Errorf("to_date = %v, want day %d", d, want)
	}
	if _, err := EvalRowValue(MustCall("to_bigint", str("zzz")), nil); err == nil {
		t.Error("expected cast error")
	}
}

func TestArrayMapFunctions(t *testing.T) {
	arrType := types.NewArray(types.Bigint)
	arr := col(0, arrType)
	page := block.NewPage(block.FromValues(arrType, []any{int64(10), int64(20), int64(30)}))
	card, err := Eval(MustCall("cardinality", arr), page)
	if err != nil {
		t.Fatal(err)
	}
	if card.Value(0) != int64(3) {
		t.Errorf("cardinality = %v", card.Value(0))
	}
	elem, err := Eval(MustCall("element_at", arr, bigint(2)), page)
	if err != nil {
		t.Fatal(err)
	}
	if elem.Value(0) != int64(20) {
		t.Errorf("element_at = %v", elem.Value(0))
	}
	oob, _ := Eval(MustCall("element_at", arr, bigint(9)), page)
	if oob.Value(0) != nil {
		t.Errorf("element_at out of range = %v", oob.Value(0))
	}
	has, _ := Eval(MustCall("contains", arr, bigint(20)), page)
	if has.Value(0) != true {
		t.Errorf("contains = %v", has.Value(0))
	}

	mapType := types.NewMap(types.Varchar, types.Double)
	mpage := block.NewPage(block.FromValues(mapType, [][2]any{{"a", 1.5}, {"b", 2.5}}))
	mv, err := Eval(MustCall("element_at", col(0, mapType), str("b")), mpage)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Value(0) != 2.5 {
		t.Errorf("map element_at = %v", mv.Value(0))
	}
}

func TestResolveErrors(t *testing.T) {
	if _, err := NewCall("no_such_fn", bigint(1)); err == nil {
		t.Error("expected unknown function error")
	}
	if _, err := NewCall("add", str("a"), bigint(1)); err == nil {
		t.Error("expected no-overload error")
	}
}

func TestWalkAndRewrite(t *testing.T) {
	e := And(
		MustCall("eq", col(0, types.Bigint), bigint(12)),
		MustCall("gt", col(3, types.Bigint), col(1, types.Bigint)),
	)
	if got := ReferencedChannels(e); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("ReferencedChannels = %v", got)
	}
	remapped := RemapChannels(e, map[int]int{0: 5, 1: 6, 3: 7})
	if got := ReferencedChannels(remapped); !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Errorf("remapped channels = %v", got)
	}
	count := 0
	Walk(e, func(RowExpression) bool { count++; return true })
	if count != 7 { // AND + 2 calls + 4 leaves (eq: var, const; gt: var, var)
		t.Errorf("walk visited %d nodes", count)
	}
}

func TestStringRendering(t *testing.T) {
	e := And(
		MustCall("eq", NewVariable("city_id", 0, types.Bigint), bigint(12)),
		MustCall("like", NewVariable("name", 1, types.Varchar), str("san%")),
	)
	want := "((city_id = 12) AND (name LIKE 'san%'))"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestAggregates(t *testing.T) {
	sum, err := ResolveAggregate("sum", []*types.Type{types.Bigint})
	if err != nil {
		t.Fatal(err)
	}
	s := sum.NewState(nil)
	for _, v := range []any{int64(1), nil, int64(4)} {
		s.Add([]any{v})
	}
	if s.Final() != int64(5) {
		t.Errorf("sum = %v", s.Final())
	}

	countStar, err := ResolveAggregate("count", nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := countStar.NewState(nil)
	cs.Add(nil)
	cs.Add(nil)
	if cs.Final() != int64(2) {
		t.Errorf("count(*) = %v", cs.Final())
	}

	countCol, _ := ResolveAggregate("count", []*types.Type{types.Varchar})
	cc := countCol.NewState([]*types.Type{types.Varchar})
	cc.Add([]any{"x"})
	cc.Add([]any{nil})
	if cc.Final() != int64(1) {
		t.Errorf("count(col) with null = %v", cc.Final())
	}

	minFn, _ := ResolveAggregate("min", []*types.Type{types.Varchar})
	ms := minFn.NewState([]*types.Type{types.Varchar})
	ms.Add([]any{"banana"})
	ms.Add([]any{"apple"})
	ms.Add([]any{nil})
	if ms.Final() != "apple" {
		t.Errorf("min = %v", ms.Final())
	}

	avgFn, _ := ResolveAggregate("avg", []*types.Type{types.Bigint})
	as := avgFn.NewState([]*types.Type{types.Bigint})
	as.Add([]any{int64(2)})
	as.Add([]any{int64(4)})
	if as.Final() != 3.0 {
		t.Errorf("avg = %v", as.Final())
	}

	// empty states
	empty := sum.NewState(nil)
	if empty.Final() != nil {
		t.Error("sum of nothing should be NULL")
	}
	emptyAvg := avgFn.NewState(nil)
	if emptyAvg.Final() != nil {
		t.Error("avg of nothing should be NULL")
	}
}

func TestAggregatePartialFinal(t *testing.T) {
	// Simulate distributed partial/final aggregation: two workers each
	// accumulate, ship intermediates, final merges.
	avgFn, _ := ResolveAggregate("avg", []*types.Type{types.Bigint})
	w1 := avgFn.NewState(nil)
	w1.Add([]any{int64(1)})
	w1.Add([]any{int64(2)})
	w2 := avgFn.NewState(nil)
	w2.Add([]any{int64(9)})

	final := avgFn.NewState(nil)
	final.AddIntermediate(w1.Intermediate())
	final.AddIntermediate(w2.Intermediate())
	if final.Final() != 4.0 {
		t.Errorf("distributed avg = %v, want 4.0", final.Final())
	}

	cFn, _ := ResolveAggregate("count", []*types.Type{types.Bigint})
	c1 := cFn.NewState(nil)
	c1.Add([]any{int64(5)})
	c1.Add([]any{int64(5)})
	c2 := cFn.NewState(nil)
	c2.Add([]any{int64(5)})
	cf := cFn.NewState(nil)
	cf.AddIntermediate(c1.Intermediate())
	cf.AddIntermediate(c2.Intermediate())
	if cf.Final() != int64(3) {
		t.Errorf("distributed count = %v", cf.Final())
	}

	ad, _ := ResolveAggregate("approx_distinct", []*types.Type{types.Varchar})
	a1 := ad.NewState(nil)
	a1.Add([]any{"x"})
	a1.Add([]any{"y"})
	a2 := ad.NewState(nil)
	a2.Add([]any{"y"})
	a2.Add([]any{"z"})
	af := ad.NewState(nil)
	af.AddIntermediate(a1.Intermediate())
	af.AddIntermediate(a2.Intermediate())
	if af.Final() != int64(3) {
		t.Errorf("distributed approx_distinct = %v", af.Final())
	}
}

func TestIsAggregate(t *testing.T) {
	if !IsAggregate("sum") || IsAggregate("lower") {
		t.Error("IsAggregate wrong")
	}
}

// TestFastKernelEncodings: the encoded fast paths (dict⊗const, RLE⊗RLE,
// const⊗col mirroring) must agree row-for-row with the flat evaluation of
// the same logical data.
func TestFastKernelEncodings(t *testing.T) {
	flat := &block.Int64Block{Values: []int64{5, 10, 12, 3, 12, 7}}
	dict := &block.DictionaryBlock{
		Dictionary: &block.Int64Block{Values: []int64{3, 5, 7, 10, 12}},
		Ids:        []int32{1, 3, 4, 0, 4, 2},
	}
	withNull := &block.Int64Block{Values: []int64{5, 10, 12, 3, 12, 7}, Nulls: []bool{false, true, false, false, false, false}}
	dictNull := &block.DictionaryBlock{
		Dictionary: &block.Int64Block{Values: []int64{3, 5, 7, 10, 12}},
		Ids:        []int32{1, -1, 4, 0, 4, 2},
	}
	exprs := []RowExpression{
		MustCall("lt", col(0, types.Bigint), bigint(10)),
		MustCall("gte", col(0, types.Bigint), bigint(7)),
		MustCall("eq", col(0, types.Bigint), bigint(12)),
		MustCall("gt", bigint(10), col(0, types.Bigint)), // const on the left
		MustCall("add", col(0, types.Bigint), bigint(100)),
		MustCall("multiply", bigint(3), col(0, types.Bigint)),
	}
	encoded := map[string][2]block.Block{
		"dict":      {flat, dict},
		"flat-null": {withNull, withNull},
		"dict-null": {withNull, dictNull},
	}
	for name, pair := range encoded {
		ref, enc := pair[0], pair[1]
		for _, e := range exprs {
			want, err := Eval(e, block.NewPage(ref))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Eval(e, block.NewPage(enc))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				if !reflect.DeepEqual(got.Value(i), want.Value(i)) {
					t.Errorf("%s %s row %d: got %v want %v", name, e, i, got.Value(i), want.Value(i))
				}
			}
		}
	}
	// RLE ⊗ RLE collapses to one evaluation.
	rlePage := block.NewPage(block.NewRunLengthBlock(&block.Int64Block{Values: []int64{9}}, 4))
	out, err := Eval(MustCall("add", col(0, types.Bigint), bigint(1)), rlePage)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.(*block.RunLengthBlock); !ok {
		t.Errorf("RLE input produced %T, want run-length output", out)
	}
	for i := 0; i < 4; i++ {
		if out.Value(i) != int64(10) {
			t.Errorf("row %d = %v, want 10", i, out.Value(i))
		}
	}
	// Dict filter keeps the indirection and still selects correctly.
	pos, err := EvalFilter(MustCall("lt", col(0, types.Bigint), bigint(10)), block.NewPage(dict))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []int{0, 3, 5}) {
		t.Errorf("dict filter positions = %v", pos)
	}
}
