package types

import (
	"testing"
	"testing/quick"
)

func TestPrimitiveStrings(t *testing.T) {
	cases := map[*Type]string{
		Boolean: "boolean",
		Integer: "integer",
		Bigint:  "bigint",
		Double:  "double",
		Varchar: "varchar",
		Date:    "date",
		Unknown: "unknown",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestNestedString(t *testing.T) {
	typ := NewRow(
		Field{Name: "city_id", Type: Bigint},
		Field{Name: "tags", Type: NewArray(Varchar)},
		Field{Name: "metrics", Type: NewMap(Varchar, Double)},
		Field{Name: "geo", Type: NewRow(Field{Name: "lat", Type: Double}, Field{Name: "lng", Type: Double})},
	)
	want := "row(city_id bigint, tags array(varchar), metrics map(varchar, double), geo row(lat double, lng double))"
	if got := typ.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"bigint",
		"varchar",
		"array(bigint)",
		"array(array(double))",
		"map(varchar, double)",
		"map(bigint, array(varchar))",
		"row(a bigint, b varchar)",
		"row(base row(driver_uuid varchar, city_id bigint, status row(code bigint, msg varchar)), datestr varchar)",
	}
	for _, s := range cases {
		typ, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := typ.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
		again, err := Parse(typ.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", typ.String(), err)
		}
		if !typ.Equals(again) {
			t.Errorf("round trip of %q not Equals", s)
		}
	}
}

func TestParseAliases(t *testing.T) {
	parse := func(s string) *Type {
		t.Helper()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		return got
	}
	if got := parse("int"); got != Integer {
		t.Errorf("int parsed to %v", got)
	}
	if got := parse("string"); got != Varchar {
		t.Errorf("string parsed to %v", got)
	}
	if got := parse("varchar(255)"); got != Varchar {
		t.Errorf("varchar(255) parsed to %v", got)
	}
	if got := parse("ROW(A BIGINT)"); got.Kind != KindRow || got.Fields[0].Name != "a" {
		t.Errorf("case-insensitive row parse failed: %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "frobnicate", "array(", "array(bigint", "map(bigint)", "row()", "bigint extra", "array()"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		}
	}
}

func TestEquals(t *testing.T) {
	a := NewRow(Field{Name: "X", Type: Bigint})
	b := NewRow(Field{Name: "x", Type: Bigint})
	if !a.Equals(b) {
		t.Error("row field names should compare case-insensitively")
	}
	if a.Equals(NewRow(Field{Name: "x", Type: Double})) {
		t.Error("different field types should not be equal")
	}
	if NewArray(Bigint).Equals(NewArray(Double)) {
		t.Error("array(bigint) != array(double)")
	}
	if NewMap(Varchar, Bigint).Equals(NewMap(Varchar, Double)) {
		t.Error("map value types differ")
	}
	var nilType *Type
	if Bigint.Equals(nilType) {
		t.Error("non-nil != nil")
	}
}

func TestFieldIndex(t *testing.T) {
	r := NewRow(Field{Name: "driver_uuid", Type: Varchar}, Field{Name: "city_id", Type: Bigint})
	if i := r.FieldIndex("city_id"); i != 1 {
		t.Errorf("FieldIndex(city_id) = %d", i)
	}
	if i := r.FieldIndex("CITY_ID"); i != 1 {
		t.Errorf("FieldIndex is case sensitive: %d", i)
	}
	if i := r.FieldIndex("nope"); i != -1 {
		t.Errorf("FieldIndex(nope) = %d", i)
	}
}

func TestCommonSuperType(t *testing.T) {
	cases := []struct {
		a, b, want *Type
	}{
		{Integer, Bigint, Bigint},
		{Bigint, Double, Double},
		{Integer, Double, Double},
		{Bigint, Bigint, Bigint},
		{Unknown, Varchar, Varchar},
		{Varchar, Unknown, Varchar},
		{Varchar, Bigint, nil},
		{Boolean, Double, nil},
	}
	for _, c := range cases {
		got := CommonSuperType(c.a, c.b)
		if (got == nil) != (c.want == nil) || (got != nil && !got.Equals(c.want)) {
			t.Errorf("CommonSuperType(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: any randomly generated type round-trips through String/Parse.
func TestQuickStringParseRoundTrip(t *testing.T) {
	gen := func(seed int64) bool {
		typ := randomType(seed, 3)
		parsed, err := Parse(typ.String())
		if err != nil {
			t.Logf("Parse(%q): %v", typ.String(), err)
			return false
		}
		return typ.Equals(parsed)
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomType builds a deterministic pseudo-random type from a seed.
func randomType(seed int64, depth int) *Type {
	next := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := seed >> 33
		if v < 0 {
			v = -v
		}
		return v
	}
	prims := []*Type{Boolean, Integer, Bigint, Double, Varchar, Date}
	var build func(d int) *Type
	build = func(d int) *Type {
		if d <= 0 {
			return prims[next()%int64(len(prims))]
		}
		switch next() % 5 {
		case 0:
			return NewArray(build(d - 1))
		case 1:
			return NewMap(prims[next()%int64(len(prims))], build(d-1))
		case 2:
			n := int(next()%3) + 1
			fields := make([]Field, n)
			for i := range fields {
				fields[i] = Field{Name: string(rune('a' + i)), Type: build(d - 1)}
			}
			return NewRow(fields...)
		default:
			return prims[next()%int64(len(prims))]
		}
	}
	return build(depth)
}
