package expr

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"prestolite/internal/types"
)

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
		data, err := Marshal(e)
		if err != nil {
			t.Errorf("%s: marshal: %v", name, err)
			continue
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Errorf("%s: unmarshal: %v", name, err)
			continue
		}
		if back.String() != e.String() {
			t.Errorf("%s: round trip changed rendering: %q vs %q", name, back.String(), e.String())
		}
		if !back.TypeOf().Equals(e.TypeOf()) {
			t.Errorf("%s: round trip changed type: %v vs %v", name, back.TypeOf(), e.TypeOf())
		}
		// Evaluate both sides where evaluable without inputs (lambdas and
		// variables need inputs; skip those).
		if _, isLambda := e.(*Lambda); isLambda {
			continue
		}
		if len(ReferencedChannels(e)) > 0 {
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

func TestFunctionHandleIsSelfContained(t *testing.T) {
	// The serialized form must carry full function-resolution info.
	c := MustCall("add", bigint(1), dbl(2.0).asBigintForTest())
	_ = c
	call := MustCall("eq", str("a"), str("b"))
	data, err := Marshal(call)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"functionHandle"`, `"eq"`, `"varchar"`, `"boolean"`} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized call missing %s: %s", want, s)
		}
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	want := FunctionHandle{Name: "eq", ArgTypes: []string{"varchar", "varchar"}, ReturnType: "boolean"}
	if got := back.(*Call).Handle; !reflect.DeepEqual(got, want) {
		t.Errorf("handle = %+v, want %+v", got, want)
	}
}

// asBigintForTest is a throwaway helper to keep the above compile-simple.
func (c *Constant) asBigintForTest() *Constant { return bigint(2) }

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		``,
		`{}`,
		`{"@type":"nope"}`,
		`{"@type":"constant","type":"bad type!!","value":{"int":"1"}}`,
		`{"@type":"call","type":"bigint"}`,
		`{"@type":"lambda","params":["x"],"paramTypes":["bigint"],"args":[]}`,
	}
	for _, s := range bad {
		if _, err := Unmarshal([]byte(s)); err == nil {
			t.Errorf("Unmarshal(%q) unexpectedly succeeded", s)
		}
	}
}

func TestInt64PrecisionSurvivesJSON(t *testing.T) {
	big := int64(1) << 62
	e := bigint(big)
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.(*Constant).Value != big {
		t.Errorf("int64 lost precision: %v", back.(*Constant).Value)
	}
}

// Property: random predicate trees survive serialization and evaluate
// identically on both sides.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomPredicate(r, 3)
		data, err := Marshal(e)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Logf("unmarshal: %v", err)
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
			MustCall("gt", bigint(r.Int63n(5)), Null().asBigintNull()),
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

// asBigintNull returns a NULL constant typed bigint so comparisons resolve.
func (c *Constant) asBigintNull() *Constant { return NewConstant(nil, types.Bigint) }
