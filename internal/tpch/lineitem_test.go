package tpch

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateRows(7, 100)
	b := GenerateRows(7, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed should generate identical rows")
	}
	c := GenerateRows(8, 100)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
}

func TestRowShapeAndDomains(t *testing.T) {
	rows := GenerateRows(1, 1000)
	if len(rows) != 1000 {
		t.Fatalf("rows = %d", len(rows))
	}
	flags := map[string]bool{"R": true, "A": true, "N": true}
	for i, r := range rows {
		if len(r) != len(LineItemColumns) {
			t.Fatalf("row %d has %d values", i, len(r))
		}
		if r[0].(int64) < 1 || r[3].(int64) < 1 || r[3].(int64) > 4 {
			t.Errorf("row %d keys: %v %v", i, r[0], r[3])
		}
		q := r[4].(float64)
		if q < 1 || q > 50 {
			t.Errorf("row %d quantity = %v", i, q)
		}
		if d := r[6].(float64); d < 0 || d > 0.10 {
			t.Errorf("row %d discount = %v", i, d)
		}
		if !flags[r[8].(string)] {
			t.Errorf("row %d returnflag = %v", i, r[8])
		}
		if len(r[10].(string)) != 10 { // YYYY-MM-DD
			t.Errorf("row %d shipdate = %v", i, r[10])
		}
	}
}

func TestGeneratePage(t *testing.T) {
	p := GeneratePage(3, 500)
	if p.Count() != 500 || len(p.Blocks) != len(LineItemColumns) {
		t.Fatalf("page %d x %d", p.Count(), len(p.Blocks))
	}
	names := ColumnNames()
	typesOf := ColumnTypes()
	if names[0] != "l_orderkey" || typesOf[4].String() != "double" {
		t.Errorf("schema accessors wrong: %v %v", names[0], typesOf[4])
	}
}

// TestGenerateRowsPinned: every table built from this generator (the chaos
// suite's, the dashboard workload's, golden.json's answers) depends on its
// exact output, draw for draw. The hash was computed before date and comment
// stopped going through fmt.Sprintf and string +=.
func TestGenerateRowsPinned(t *testing.T) {
	h := fnv.New64a()
	for _, seed := range []int64{1, 99, 12345} {
		fmt.Fprint(h, GenerateRows(seed, 500))
	}
	if got, want := h.Sum64(), uint64(0x736f7505576e76c2); got != want {
		t.Errorf("GenerateRows hash = %#x, want %#x: the generator's output changed", got, want)
	}
}
