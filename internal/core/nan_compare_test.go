package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/types"
)

// TestNaNComparisonsFollowIEEE: a comparison with a NaN double follows IEEE
// 754 — =, <, <=, >, >=, IN and BETWEEN never match it, <> always does —
// alike where the hive reader evaluates it pushed down (typed selection and
// footer statistics) and where the expression evaluator does over a memory
// table. The hive files put a NaN first in a file, where it used to become
// the file's min and max, and beside values that are all 0.0, where a <>
// must not skip the file by its statistics.
func TestNaNComparisonsFollowIEEE(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	files := [][]any{{nan, 1.5, negZero}, {0.0, nan, 0.0, nil}, {nan, nan}, {-2.5, nil}}
	cols := []connector.Column{{Name: "x", Type: types.Double}}
	mem := memory.New("memory")
	if err := mem.CreateTable("s", "c", cols, nil); err != nil {
		t.Fatal(err)
	}
	var pages []*block.Page
	var all []float64 // the non-NULL values
	for _, file := range files {
		pb := block.NewPageBuilder([]*types.Type{types.Double})
		for _, v := range file {
			pb.AppendRow([]any{v})
			if err := mem.AppendRows("s", "c", [][]any{{v}}); err != nil {
				t.Fatal(err)
			}
			if v != nil {
				all = append(all, v.(float64))
			}
		}
		pages = append(pages, pb.Build())
	}
	fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
	if err := (&hive.Loader{MS: ms, FS: fs}).CreateTable("s", "c", []metastore.Column{{Name: "x", Type: types.Double}}, pages); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Register("memory", mem)
	e.Register("hive", hive.New("hive", ms, fs, hive.Options{}))

	ops := map[string]func(x, lit float64) bool{
		"=":  func(x, lit float64) bool { return x == lit },
		"<>": func(x, lit float64) bool { return x != lit },
		"<":  func(x, lit float64) bool { return x < lit },
		"<=": func(x, lit float64) bool { return x <= lit },
		">":  func(x, lit float64) bool { return x > lit },
		">=": func(x, lit float64) bool { return x >= lit },
	}
	count := func(match func(float64) bool) int64 {
		n := int64(0)
		for _, x := range all {
			if match(x) {
				n++
			}
		}
		return n
	}
	cases := map[string]int64{
		"x IN (0.0, 1.5)":             count(func(x float64) bool { return x == 0 || x == 1.5 }),
		"x BETWEEN -1.0 AND 2.0":      count(func(x float64) bool { return x >= -1 && x <= 2 }),
		"NOT (x IN (0.0, -2.5))":      count(func(x float64) bool { return !(x == 0 || x == -2.5) }),
		"x <> 0.0 AND x <> 1.5":       count(func(x float64) bool { return x != 0 && x != 1.5 }),
		"NOT (x BETWEEN 0.0 AND 0.0)": count(func(x float64) bool { return !(x >= 0 && x <= 0) }),
	}
	for op, match := range ops {
		for _, lit := range []float64{0, 1.5, -1} {
			cases[fmt.Sprintf("x %s %.1f", op, lit)] = count(func(x float64) bool { return match(x, lit) })
		}
	}
	for where, want := range cases {
		for _, catalog := range []string{"hive", "memory"} {
			session := DefaultSession(catalog, "s")
			stmt := "SELECT count(*) FROM c WHERE " + where
			res, err := e.Query(session, stmt)
			if err != nil {
				t.Fatalf("%s %s: %v", catalog, stmt, err)
			}
			if got := res.Rows()[0][0]; got != want {
				t.Errorf("%s: %s = %v, want %d", catalog, stmt, got, want)
			}
		}
	}
	// The comparisons are pushed into the hive reader, not left to the engine.
	plan, err := e.Explain(DefaultSession("hive", "s"), "SELECT count(*) FROM c WHERE x = 0.0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "Filter[") || !strings.Contains(plan, "x = 0.0") {
		t.Errorf("x = 0.0 is not pushed into the hive scan:\n%s", plan)
	}
}
