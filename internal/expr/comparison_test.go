package expr

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"prestolite/internal/types"
)

// byName resolves any Variable to its name: the simplest column resolver.
func byName(e RowExpression) (string, bool) {
	v, ok := e.(*Variable)
	if !ok {
		return "", false
	}
	return v.Name, true
}

func TestLowerComparison(t *testing.T) {
	n, s := NewVariable("n", 0, types.Bigint), NewVariable("s", 1, types.Varchar)
	in := func(args ...RowExpression) RowExpression {
		return &SpecialForm{Form: FormIn, Args: args, Ret: types.Boolean}
	}
	// rawEq is eq(a, b) without resolution, for operands no analyzer would type.
	rawEq := func(a, b RowExpression) RowExpression {
		return &Call{Handle: FunctionHandle{Name: "eq"}, Args: []RowExpression{a, b}, Ret: types.Boolean}
	}
	for _, tc := range []struct {
		name string
		e    RowExpression
		want *Comparison // nil: not lowered
	}{
		{"col op const", MustCall("lte", n, bigint(7)), &Comparison{"n", OpLte, []any{int64(7)}}},
		{"const op col flips", MustCall("lt", bigint(7), n), &Comparison{"n", OpGt, []any{int64(7)}}},
		{"const = col", MustCall("eq", str("a"), s), &Comparison{"s", OpEq, []any{"a"}}},
		{"const <> col", MustCall("neq", str("a"), s), &Comparison{"s", OpNeq, []any{"a"}}},
		{"const >= col flips", MustCall("gte", bigint(3), n), &Comparison{"n", OpLte, []any{int64(3)}}},
		{"IN list", in(s, str("a"), str("b,c")), &Comparison{"s", OpIn, []any{"a", "b,c"}}},
		{"NULL constant", rawEq(n, NewConstant(nil, types.Bigint)), nil},
		{"NULL constant first", rawEq(NewConstant(nil, types.Bigint), n), nil},
		{"NULL in an IN list", in(n, bigint(1), NewConstant(nil, types.Bigint)), nil},
		{"array constant", rawEq(n, NewConstant([]any{int64(1)}, types.NewArray(types.Bigint))), nil},
		{"array constant in an IN list", in(n, NewConstant([]any{int64(1)}, types.NewArray(types.Bigint))), nil},
		{"constant boxed as int", rawEq(n, &Constant{Value: 7, Type: types.Bigint}), nil},
		{"cast around the column", MustCall("gt", MustCall("to_double", n), dbl(2.5)), nil},
		{"arithmetic around the column", MustCall("eq", MustCall("add", n, bigint(1)), bigint(4)), nil},
		{"column against column", MustCall("eq", n, n), nil},
		{"constant against constant", MustCall("eq", bigint(1), bigint(1)), nil},
		{"IN over an expression", in(MustCall("add", n, bigint(1)), bigint(4)), nil},
		{"IN with a column in the list", in(n, bigint(1), n), nil},
		{"OR", Or(MustCall("eq", n, bigint(1)), MustCall("eq", n, bigint(2))), nil},
		{"NOT", Not(MustCall("eq", n, bigint(1))), nil},
		{"BETWEEN", &SpecialForm{Form: FormBetween, Args: []RowExpression{n, bigint(1), bigint(2)}, Ret: types.Boolean}, nil},
		{"another function", MustCall("like", s, str("a%")), nil},
		{"a bare column", NewVariable("b", 2, types.Boolean), nil},
	} {
		got, ok := LowerComparison(tc.e, byName)
		switch {
		case tc.want == nil && ok:
			t.Errorf("%s: lowered %s to %s", tc.name, tc.e, got)
		case tc.want != nil && (!ok || !reflect.DeepEqual(got, *tc.want)):
			t.Errorf("%s: %s lowered to %s (%v), want %s", tc.name, tc.e, got, ok, *tc.want)
		}
	}
	// The resolver decides what a column is.
	onlyS := func(e RowExpression) (string, bool) {
		name, ok := byName(e)
		return name, ok && name == "s"
	}
	if _, ok := LowerComparison(MustCall("eq", n, bigint(1)), onlyS); ok {
		t.Error("lowered a comparison on a column the resolver refused")
	}
}

func TestConjuncts(t *testing.T) {
	a, b, c := MustCall("eq", col(0, types.Bigint), bigint(1)), MustCall("eq", col(1, types.Bigint), bigint(2)), Or(boolean(true), boolean(false))
	nested := &SpecialForm{Form: FormAnd, Ret: types.Boolean, Args: []RowExpression{
		a, &SpecialForm{Form: FormAnd, Ret: types.Boolean, Args: []RowExpression{b, c}}}}
	if got := Conjuncts(nested); !reflect.DeepEqual(got, []RowExpression{a, b, c}) {
		t.Errorf("Conjuncts = %v", got)
	}
	if got := Conjuncts(c); !reflect.DeepEqual(got, []RowExpression{c}) {
		t.Errorf("Conjuncts of a non-AND = %v", got)
	}
}

// TestOverlapsStatsIsSound: a row group may only be skipped when no value
// within its [min, max] matches — and, CoversStats being the dual, the
// comparison may only be skipped when every value within it does.
func TestOverlapsStatsIsSound(t *testing.T) {
	for op := OpEq; op <= OpIn; op++ {
		for lit := int64(-1); lit <= 4; lit++ {
			c := Comparison{Column: "n", Op: op, Values: []any{lit}}
			if op == OpIn {
				c.Values = append(c.Values, lit+2)
			}
			for min := int64(0); min <= 3; min++ {
				for max := min; max <= 3; max++ {
					some, all := false, true
					for v := min; v <= max; v++ {
						some, all = some || c.Match(v), all && c.Match(v)
					}
					if got := c.OverlapsStats(min, max); some && !got {
						t.Errorf("%s excludes [%d, %d], which holds a match", c, min, max)
					} else if !some && got && op != OpIn { // a gap inside an IN list's span is allowed to overlap
						t.Errorf("%s keeps [%d, %d], which holds no match", c, min, max)
					}
					if got := c.CoversStats(min, max); got && !all {
						t.Errorf("%s covers [%d, %d], which holds a value it does not match", c, min, max)
					} else if all && !got && (op != OpIn || min == max) { // an IN list is not searched for a run of values
						t.Errorf("%s does not cover [%d, %d], every value of which it matches", c, min, max)
					}
					// A literal of the other numeric kind is converted as Match
					// converts it, whichever test is asked.
					f := Comparison{Column: "n", Op: op, Values: []any{float64(lit) + 0.5}}
					if f.Match(min) && f.Match(max) && min == max && !f.OverlapsStats(min, max) {
						t.Errorf("%s excludes [%d, %d], which it matches", f, min, max)
					}
					if f.CoversStats(min, max) && !(f.Match(min) && f.Match(max)) {
						t.Errorf("%s covers [%d, %d] and does not match its ends", f, min, max)
					}
				}
			}
			if !c.OverlapsStats(nil, nil) || c.CoversStats(nil, nil) {
				t.Errorf("%s decides a row group without statistics", c)
			}
			if c.Match(nil) {
				t.Errorf("%s matches NULL", c)
			}
		}
	}
}

// A NaN on either side of a comparison matches only <> (IEEE 754), and the
// statistics tests agree: a unit with no NaN among its numbers is covered
// by <> NaN and by no other comparison with a NaN literal, and a double
// unit is never skipped for <>, since it may hold a NaN.
func TestNaNComparisons(t *testing.T) {
	nan := math.NaN()
	for op := OpEq; op <= OpIn; op++ {
		lit := Comparison{Column: "d", Op: op, Values: []any{nan}}
		for _, m := range []struct {
			c Comparison
			v any
		}{{lit, 0.5}, {lit, nan}, {Comparison{Column: "d", Op: op, Values: []any{0.5}}, nan}} {
			if got, want := m.c.Match(m.v), op == OpNeq; got != want {
				t.Errorf("%s matches %v: %v, want %v", m.c, m.v, got, want)
			}
		}
		if got, want := lit.CoversStats(0.0, 1.0), op == OpNeq; got != want {
			t.Errorf("%s covers [0, 1]: %v, want %v", lit, got, want)
		}
	}
	neq := Comparison{Column: "d", Op: OpNeq, Values: []any{0.0}}
	if !neq.OverlapsStats(0.0, 0.0) {
		t.Errorf("%s skips a double unit of zeros, which may hold a NaN", neq)
	}
}

func TestComparisonStringSeparates(t *testing.T) {
	pairs := [][2]Comparison{
		{{"name", OpIn, []any{"san francisco"}}, {"name", OpIn, []any{"san", "francisco"}}},
		{{"d", OpIn, []any{"2017-03-01,2017-03-02"}}, {"d", OpIn, []any{"2017-03-01", "2017-03-02"}}},
		{{"n", OpEq, []any{int64(2)}}, {"n", OpEq, []any{2.0}}},
		{{"n", OpEq, []any{int64(2)}}, {"n", OpEq, []any{"2"}}},
		{{"b", OpEq, []any{true}}, {"b", OpEq, []any{"true"}}},
		{{"s", OpEq, []any{`a", "b`}}, {"s", OpIn, []any{"a", "b"}}},
		{{"s", OpEq, []any{"a"}}, {"s", OpIn, []any{"a"}}},
		{{"n", OpEq, []any{1e21}}, {"n", OpEq, []any{math.Inf(1)}}},
		{{"a = 1 AND b", OpEq, []any{int64(2)}}, {"a", OpEq, []any{int64(1)}}},
		{{"", OpEq, []any{int64(1)}}, {`""`, OpEq, []any{int64(1)}}},
	}
	for _, p := range pairs {
		if p[0].String() == p[1].String() {
			t.Errorf("%#v and %#v both render as %s", p[0], p[1], p[0])
		}
	}
	for c, want := range map[string]string{
		Comparison{"base.city_id", OpGte, []any{int64(12)}}.String():      `base.city_id >= 12`,
		Comparison{"datestr", OpIn, []any{"2017-03-01", "x"}}.String():    `datestr IN ("2017-03-01", "x")`,
		Comparison{"fare", OpLt, []any{2.0}}.String():                     `fare < 2.0`,
		Comparison{"fare", OpNeq, []any{2.5}}.String():                    `fare <> 2.5`,
		Comparison{"ok", OpEq, []any{false}}.String():                     `ok = false`,
		Comparison{"odd name", OpEq, []any{"it's"}}.String():              `"odd name" = "it's"`,
		Comparison{"n", OpIn, nil}.String():                               `n IN ()`,
		Comparison{"n", CompareOp(9), []any{int64(1), int64(2)}}.String(): `n op(9) (1, 2)`,
	} {
		if c != want {
			t.Errorf("rendered %s, want %s", c, want)
		}
	}
}

// decodeComparison reads one comparison from data: any column, any op (a few
// beyond the enum), up to three values of the four boxed kinds.
func decodeComparison(data []byte) (Comparison, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	word := func() uint64 {
		var w [8]byte
		copy(w[:], take(8))
		return binary.LittleEndian.Uint64(w[:])
	}
	c := Comparison{Column: string(take(int(next() % 8)))}
	c.Op = CompareOp(next() % 9)
	for n := int(next() % 4); n > 0; n-- {
		switch next() % 4 {
		case 0:
			c.Values = append(c.Values, int64(word()))
		case 1:
			c.Values = append(c.Values, math.Float64frombits(word()))
		case 2:
			c.Values = append(c.Values, string(take(int(next()%8))))
		default:
			c.Values = append(c.Values, next()%2 == 1)
		}
	}
	return c, data
}

// sameComparison is equality of what a comparison selects: NaNs are one value.
func sameComparison(a, b Comparison) bool {
	if a.Column != b.Column || a.Op != b.Op || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		w := b.Values[i]
		if x, ok := v.(float64); ok && math.IsNaN(x) {
			y, ok := w.(float64)
			if !ok || !math.IsNaN(y) {
				return false
			}
			continue
		}
		if v != w {
			return false
		}
	}
	return true
}

// FuzzComparisonString: EXPLAIN shows pushed comparisons in this rendering, so
// equal strings may only come from equal comparisons.
func FuzzComparisonString(f *testing.F) {
	f.Add([]byte("\x04name\x06\x01\x02\x07san fra\x04name\x06\x02\x02\x03san\x02\x03fra"))
	f.Add([]byte("\x01n\x00\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01n\x00\x01\x01\x00\x00\x00\x00\x00\x00\x00\x40"))
	f.Add([]byte("\x01n\x00\x01\x02\x011\x01n\x00\x01\x00\x01"))
	f.Add([]byte("\x05a = 1\x00\x01\x03\x01\x01a\x00\x01\x03\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := decodeComparison(data)
		b, _ := decodeComparison(rest)
		as, bs := a.String(), b.String()
		if as == bs && !sameComparison(a, b) {
			t.Fatalf("%#v and %#v both render as %s", a, b, as)
		}
		if sameComparison(a, b) && as != bs && !hasZero(a) {
			t.Fatalf("%#v renders as %s and as %s", a, as, bs)
		}
	})
}

// hasZero: 0.0 == -0.0 and they render apart, which costs a cache miss, never
// a wrong answer.
func hasZero(c Comparison) bool {
	for _, v := range c.Values {
		if x, ok := v.(float64); ok && x == 0 {
			return true
		}
	}
	return false
}
