package expr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// roundTrip writes e in its binary form and reads it back, as a worker reads
// a plan fragment or a connector handle.
func roundTrip(e RowExpression) (RowExpression, error) {
	r := frame.NewReader(AppendExpr(nil, e))
	back := ReadExpr(r)
	return back, r.Close()
}

// TestTableI verifies the property Table I of the paper claims for each of
// the five RowExpression subtypes: the representation is completely
// self-contained — it serializes, deserializes on "another system", and
// evaluates identically without any re-resolution against the original
// planner state.
func TestTableI(t *testing.T) {
	rowType := types.NewRow(
		types.Field{Name: "city_id", Type: types.Bigint},
		types.Field{Name: "driver_uuid", Type: types.Varchar},
	)
	deref, err := Dereference(NewVariable("base", 0, rowType), "city_id")
	if err != nil {
		t.Fatal(err)
	}
	exprs := map[string]RowExpression{
		"ConstantExpression (1L, BIGINT)":   bigint(1),
		"ConstantExpression ('string')":     str("string"),
		"ConstantExpression (null)":         Null(),
		"VariableReferenceExpression":       NewVariable("columnA", 2, types.Bigint),
		"CallExpression arithmetic":         MustCall("add", bigint(1), bigint(2)),
		"CallExpression cast":               MustCall("to_double", bigint(1)),
		"CallExpression udf-style":          MustCall("concat", str("a"), str("b")),
		"SpecialFormExpression IN":          &SpecialForm{Form: FormIn, Args: []RowExpression{bigint(1), bigint(1), bigint(2)}, Ret: types.Boolean},
		"SpecialFormExpression IF":          &SpecialForm{Form: FormIf, Args: []RowExpression{boolean(true), str("y"), str("n")}, Ret: types.Varchar},
		"SpecialFormExpression IS_NULL":     &SpecialForm{Form: FormIsNull, Args: []RowExpression{Null()}, Ret: types.Boolean},
		"SpecialFormExpression AND":         And(boolean(true), boolean(false)),
		"SpecialFormExpression DEREFERENCE": deref,
		"LambdaDefinitionExpression x+y": &Lambda{
			Params:     []string{"x", "y"},
			ParamTypes: []*types.Type{types.Bigint, types.Bigint},
			Body:       MustCall("add", NewVariable("x", 0, types.Bigint), NewVariable("y", 1, types.Bigint)),
		},
	}
	for name, e := range exprs {
		back, err := roundTrip(e)
		if err != nil {
			t.Errorf("%s: read back: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(back, e) {
			t.Errorf("%s: round trip changed the expression: %#v vs %#v", name, back, e)
		}
		if back.String() != e.String() || !back.TypeOf().Equals(e.TypeOf()) {
			t.Errorf("%s: round trip changed rendering or type: %q %v vs %q %v", name, back, back.TypeOf(), e, e.TypeOf())
		}
		// Evaluate both sides where evaluable without inputs (lambdas and
		// variables need inputs; skip those).
		if _, isLambda := e.(*Lambda); isLambda || len(ReferencedChannels(e)) > 0 {
			continue
		}
		want, err1 := EvalRowValue(e, nil)
		got, err2 := EvalRowValue(back, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%s: eval error mismatch: %v vs %v", name, err1, err2)
			continue
		}
		if err1 == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: deserialized eval = %v, original = %v", name, got, want)
		}
	}
}

// TestInt64PrecisionSurvivesJSON: a bigint constant too large for a float64
// to hold exactly comes back bit for bit. The name is kept from the JSON codec
// this test first guarded; the binary codec writes the int64 itself, both as
// an expression constant and as a bare value (a pushed comparison's bound).
func TestInt64PrecisionSurvivesJSON(t *testing.T) {
	big := int64(1)<<62 + 1 // float64(big) != big
	back, err := roundTrip(bigint(big))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.(*Constant).Value; got != big {
		t.Errorf("constant lost precision: %v, want %d", got, big)
	}
	r := frame.NewReader(AppendValue(nil, big))
	got := ReadValue(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got != big {
		t.Errorf("value lost precision: %v, want %d", got, big)
	}
}

// TestFunctionHandleIsSelfContained: a call read back carries its full
// function resolution — name, argument types, return type — so a worker
// evaluates it without resolving anything.
func TestFunctionHandleIsSelfContained(t *testing.T) {
	back, err := roundTrip(MustCall("eq", str("a"), str("b")))
	if err != nil {
		t.Fatal(err)
	}
	want := FunctionHandle{Name: "eq", ArgTypes: []string{"varchar", "varchar"}, ReturnType: "boolean"}
	if got := back.(*Call).Handle; !reflect.DeepEqual(got, want) {
		t.Errorf("handle = %+v, want %+v", got, want)
	}
}

// TestReadExprRefusesBadDocuments: bytes no AppendExpr wrote are refused,
// never read as an expression.
func TestReadExprRefusesBadDocuments(t *testing.T) {
	call := AppendExpr(nil, MustCall("add", bigint(1), bigint(2)))
	bad := map[string][]byte{
		"empty":               nil,
		"unknown tag":         {0x7f},
		"truncated call":      call[:len(call)-3],
		"call missing an arg": AppendExpr(nil, &Call{Handle: FunctionHandle{Name: "not"}, Args: []RowExpression{nil}, Ret: types.Boolean}),
		"trailing bytes":      append(AppendExpr(nil, bigint(1)), 0),
	}
	deep := []byte{}
	for i := 0; i <= maxWireDepth+1; i++ {
		deep = append(deep, exprLambda, 0, 0) // no params, then the body
	}
	bad["nested too deep"] = append(deep, exprNil) // complete, but too deep
	for name, data := range bad {
		r := frame.NewReader(data)
		ReadExpr(r)
		if r.Close() == nil {
			t.Errorf("%s: read without an error", name)
		}
	}
}

// Property: random predicate trees survive the binary form and evaluate
// identically on both sides.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomPredicate(r, 3)
		back, err := roundTrip(e)
		if err != nil {
			t.Logf("read back: %v", err)
			return false
		}
		want, err1 := EvalRowValue(e, nil)
		got, err2 := EvalRowValue(back, nil)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return err1 != nil || reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomPredicate builds a random constant-only boolean expression.
func randomPredicate(r *rand.Rand, depth int) RowExpression {
	if depth == 0 || r.Intn(3) == 0 {
		leaf := []RowExpression{
			MustCall("eq", bigint(r.Int63n(10)), bigint(r.Int63n(10))),
			MustCall("lt", dbl(r.Float64()), dbl(r.Float64())),
			MustCall("like", str("abc"), str("a%")),
			boolean(r.Intn(2) == 0),
			MustCall("gt", bigint(r.Int63n(5)), NewConstant(nil, types.Bigint)),
		}
		return leaf[r.Intn(len(leaf))]
	}
	switch r.Intn(3) {
	case 0:
		return And(randomPredicate(r, depth-1), randomPredicate(r, depth-1))
	case 1:
		return Or(randomPredicate(r, depth-1), randomPredicate(r, depth-1))
	default:
		return Not(randomPredicate(r, depth-1))
	}
}
