package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/types"
)

// doubleKeysEngine serves memory.s.c(x double, tag varchar) holding the
// three doubles that bit-pattern keys get wrong: −0.0, +0.0 and NaN.
func doubleKeysEngine(t *testing.T) *Engine {
	t.Helper()
	mem := memory.New("memory")
	if err := mem.CreateTable("s", "c", []connector.Column{
		{Name: "x", Type: types.Double},
		{Name: "tag", Type: types.Varchar},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := mem.AppendRows("s", "c", [][]any{
		{math.Copysign(0, -1), "neg"}, {0.0, "pos"}, {math.NaN(), "nan"},
	}); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Register("memory", mem)
	return e
}

// TestDoubleKeysAgreeWithEquals: wherever a double becomes a hash key — a
// join key, a group key, a DISTINCT argument — it must behave as `=` does:
// −0.0 and +0.0 are one key (and a group emits it as +0.0), a NaN join key
// matches nothing, and GROUP BY keeps the NaNs in one group. The second
// statement of each pair states the answer without a double key: a
// residual join evaluates `=` row by row, and x + 0.0 turns −0.0 into +0.0.
func TestDoubleKeysAgreeWithEquals(t *testing.T) {
	const residual = `SELECT c1.tag, c2.tag FROM c c1 JOIN c c2 ON c1.x = c2.x OR c1.tag = 'zzz'`
	pairs := []struct{ name, keyed, reference string }{
		{"join", `SELECT c1.tag, c2.tag FROM c c1 JOIN c c2 ON c1.x = c2.x`, residual},
		{"comma join", `SELECT c1.tag, c2.tag FROM c c1, c c2 WHERE c1.x = c2.x`, residual},
		{"left join",
			`SELECT c1.tag, c2.tag FROM c c1 LEFT JOIN c c2 ON c1.x = c2.x`,
			`SELECT c1.tag, c2.tag FROM c c1 LEFT JOIN c c2 ON c1.x = c2.x OR c1.tag = 'zzz'`},
		{"group by",
			`SELECT x, count(*) FROM c GROUP BY x`,
			`SELECT x + 0.0, count(*) FROM c GROUP BY x + 0.0`},
		{"group by, filtered",
			`SELECT n FROM (SELECT x, count(*) AS n FROM c GROUP BY x) g WHERE x = 0.0`,
			`SELECT count(*) FROM c WHERE x = 0.0`},
		{"count distinct", `SELECT count(DISTINCT x) FROM c`, `SELECT count(DISTINCT x + 0.0) FROM c`},
	}
	e := doubleKeysEngine(t)
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			want := normalizeRows(doubleKeysQuery(t, e, p.reference, 1))
			for _, drivers := range []int{1, 8} {
				for _, sql := range []string{p.keyed, p.reference} {
					if got := normalizeRows(doubleKeysQuery(t, e, sql, drivers)); !reflect.DeepEqual(got, want) {
						t.Errorf("drivers=%d %s\n got  %v\n want %v", drivers, sql, got, want)
					}
				}
			}
		})
	}
}

// TestCommaJoinPlansAsKeyedJoin: a comma join whose only conjunct relates
// the two sides must plan as a keyed INNER join, not as a filter over a
// cross product.
func TestCommaJoinPlansAsKeyedJoin(t *testing.T) {
	res := doubleKeysQuery(t, doubleKeysEngine(t), `EXPLAIN SELECT c1.tag, c2.tag FROM c c1, c c2 WHERE c1.x = c2.x`, 1)
	text := res.Rows()[0][0].(string)
	if !strings.Contains(text, "INNERJoin[x = x]") || strings.Contains(text, "Filter[") {
		t.Fatalf("want a keyed INNER join with no Filter above it:\n%s", text)
	}
}

func doubleKeysQuery(t *testing.T, e *Engine, sql string, drivers int) *Result {
	t.Helper()
	s := DefaultSession("memory", "s")
	s.Properties["task_concurrency"] = fmt.Sprint(drivers)
	res, err := e.Query(s, sql)
	if err != nil {
		t.Fatalf("drivers=%d %s: %v", drivers, sql, err)
	}
	return res
}
