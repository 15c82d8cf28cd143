package planner

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"prestolite/internal/connector"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/expr"
	"prestolite/internal/sql"
	"prestolite/internal/types"
)

func testCatalogs(t *testing.T) *connector.Registry {
	t.Helper()
	mem := memory.New("memory")
	if err := mem.CreateTable("s", "t", []connector.Column{
		{Name: "a", Type: types.Bigint},
		{Name: "b", Type: types.Varchar},
		{Name: "c", Type: types.Double},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := mem.CreateTable("s", "u", []connector.Column{
		{Name: "a", Type: types.Bigint},
		{Name: "d", Type: types.Varchar},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := mem.CreateTable("s", "n", []connector.Column{
		{Name: "a", Type: types.NewArray(types.Bigint)},
		{Name: "m", Type: types.NewMap(types.Varchar, types.Bigint)},
		{Name: "r", Type: types.NewRow(types.Field{Name: "x", Type: types.Bigint})},
	}, nil); err != nil {
		t.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("memory", mem)
	return reg
}

// parseQuery parses a statement that must be a SELECT.
func parseQuery(t *testing.T, query string) *sql.Query {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return stmt.(*sql.Query)
}

func plan(t *testing.T, query string, optimize bool) Node {
	t.Helper()
	q := parseQuery(t, query)
	session := &Session{Catalog: "memory", Schema: "s", Properties: map[string]string{}}
	catalogs := testCatalogs(t)
	a := &Analyzer{Catalogs: catalogs, Session: session}
	n, err := a.Analyze(q)
	if err != nil {
		t.Fatalf("analyze %q: %v", query, err)
	}
	if optimize {
		o := &Optimizer{Catalogs: catalogs, Session: session}
		n = o.Optimize(n)
	}
	if err := CheckTypes(n); err != nil {
		t.Fatalf("CheckTypes: %v", err)
	}
	return n
}

func TestAnalyzeShapes(t *testing.T) {
	n := plan(t, "SELECT a, b FROM t WHERE c > 1.0", false)
	out, ok := n.(*Output)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	proj, ok := out.Child.(*Project)
	if !ok {
		t.Fatalf("child = %T", out.Child)
	}
	if _, ok := proj.Child.(*Filter); !ok {
		t.Fatalf("grandchild = %T", proj.Child)
	}
	cols := n.Outputs()
	if cols[0].Name != "a" || cols[0].Type != types.Bigint || cols[1].Type != types.Varchar {
		t.Errorf("outputs = %v", cols)
	}
}

func TestAggregationPlanShape(t *testing.T) {
	n := plan(t, "SELECT b, count(*) AS n, sum(a) FROM t GROUP BY b HAVING count(*) > 1", false)
	s := Format(n)
	for _, want := range []string{"Aggregate(SINGLE)", "count(*)", "sum(a)", "Filter"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan missing %q:\n%s", want, s)
		}
	}
}

func TestOptimizerPrunesAndPushes(t *testing.T) {
	n := plan(t, "SELECT a FROM t WHERE b = 'x' LIMIT 5", true)
	s := Format(n)
	if !strings.Contains(s, "filter=") || !strings.Contains(s, "limit=5") {
		t.Errorf("pushdowns missing:\n%s", s)
	}
	if strings.Contains(s, "- Filter[") {
		t.Errorf("filter should be absorbed:\n%s", s)
	}
	// c is unused and should be pruned from the scan output.
	if strings.Contains(s, " c") && strings.Contains(s, "=> [a, b, c]") {
		t.Errorf("columns not pruned:\n%s", s)
	}
}

func TestJoinKeyExtraction(t *testing.T) {
	n := plan(t, "SELECT t.b FROM t JOIN u ON t.a = u.a AND t.c > 1.0", false)
	var join *Join
	var walk func(Node)
	walk = func(x Node) {
		if j, ok := x.(*Join); ok {
			join = j
		}
		for _, c := range x.Children() {
			walk(c)
		}
	}
	walk(n)
	if join == nil {
		t.Fatal("no join in plan")
	}
	if len(join.LeftKeys) != 1 || len(join.RightKeys) != 1 {
		t.Errorf("keys = %v / %v", join.LeftKeys, join.RightKeys)
	}
	if join.Residual == nil {
		t.Error("non-equi conjunct should stay as residual")
	}
}

func TestFragmenterPartialFinalSplit(t *testing.T) {
	n := plan(t, "SELECT b, count(*), avg(a) FROM t GROUP BY b", true)
	f := &Fragmenter{}
	fp := f.Fragment(n)
	if len(fp.Sources) != 1 {
		t.Fatalf("sources = %d", len(fp.Sources))
	}
	rootStr := Format(fp.Root.Root)
	srcStr := Format(fp.Sources[1].Root)
	if !strings.Contains(rootStr, "Aggregate(FINAL)") || !strings.Contains(rootStr, "RemoteSource") {
		t.Errorf("root fragment:\n%s", rootStr)
	}
	if !strings.Contains(srcStr, "Aggregate(PARTIAL)") || !strings.Contains(srcStr, "TableScan") {
		t.Errorf("source fragment:\n%s", srcStr)
	}
	// The partial's intermediate type for avg is a row(sum, count).
	partial := fp.Sources[1].Root.(*Aggregate)
	outs := partial.Outputs()
	if outs[2].Type.Kind != types.KindRow {
		t.Errorf("avg intermediate type = %v", outs[2].Type)
	}
}

func TestFragmenterDistinctStaysSingle(t *testing.T) {
	n := plan(t, "SELECT count(distinct b) FROM t", true)
	fp := (&Fragmenter{}).Fragment(n)
	rootStr := Format(fp.Root.Root)
	if !strings.Contains(rootStr, "Aggregate(SINGLE)") {
		t.Errorf("distinct aggregation must not split:\n%s", rootStr)
	}
}

func TestFragmenterConstantQuery(t *testing.T) {
	n := plan(t, "SELECT 1 + 1", true)
	fp := (&Fragmenter{}).Fragment(n)
	if !fp.SingleFragment() {
		t.Error("constant query should be coordinator-only")
	}
}

func TestSessionProperties(t *testing.T) {
	s := &Session{Properties: map[string]string{"geospatial_optimization": "false"}}
	if s.Property("geospatial_optimization", "true") != "false" {
		t.Error("property lookup failed")
	}
	if s.Property("missing", "dflt") != "dflt" {
		t.Error("default lookup failed")
	}
	var nilSession *Session
	if nilSession.Property("x", "d") != "d" {
		t.Error("nil session should return default")
	}
}

// README's "Session properties" table has one row per name in
// sessionProperties and none extra, so the documented set is the accepted set.
func TestREADMEListsEverySessionProperty(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Session properties\n")
	if !ok {
		t.Fatal(`README.md has no "## Session properties" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if rest, isRow := strings.CutPrefix(line, "| `"); isRow {
			name, _, _ := strings.Cut(rest, "`")
			rows = append(rows, name)
		}
	}
	want := slices.Clone(sessionProperties)
	slices.Sort(rows)
	slices.Sort(want)
	if !slices.Equal(rows, want) {
		t.Errorf("README rows %v\nsessionProperties %v", rows, want)
	}
}

func TestCheckTypesCatchesBadChannels(t *testing.T) {
	scan := &TableScan{Catalog: "x", Schema: "s", Table: "t",
		Cols: []Column{{Name: "a", Type: types.Bigint}}, ColumnOrdinals: []int{0}}
	bad := &Filter{Child: scan, Predicate: expr.MustCall("eq",
		expr.NewVariable("ghost", 7, types.Bigint), expr.NewConstant(int64(1), types.Bigint))}
	if err := CheckTypes(bad); err == nil {
		t.Error("out-of-range channel accepted")
	}
}

func TestConstantFolding(t *testing.T) {
	n := plan(t, "SELECT a + (1 + 2) FROM t WHERE b = upper('x')", true)
	s := Format(n)
	if !strings.Contains(s, "3") {
		t.Errorf("1 + 2 not folded:\n%s", s)
	}
	if strings.Contains(s, "upper") {
		t.Errorf("upper('x') not folded:\n%s", s)
	}
	if !strings.Contains(s, "'X'") {
		t.Errorf("folded constant missing:\n%s", s)
	}
	// Runtime errors are preserved, not folded away.
	n2 := plan(t, "SELECT a / 0 FROM t", true)
	if !strings.Contains(Format(n2), "/ 0") {
		t.Errorf("division by zero should stay:\n%s", Format(n2))
	}
}

// TestExecProperties: the one parser behind the embedded engine and the
// coordinator applies defaults, keeps "unset" apart from zero, and rejects
// malformed values and unknown names with one error text.
func TestExecProperties(t *testing.T) {
	got, err := (&Session{}).ExecProperties()
	if err != nil || got != (ExecProperties{SpillEnabled: true, ResultCache: true}) {
		t.Fatalf("defaults = %+v, %v", got, err)
	}
	s := &Session{Properties: map[string]string{
		"task_concurrency": "4", "query_max_memory": "0", "spill_enabled": "false",
		"query_max_run_ms": "1500", "result_cache": "false",
	}}
	got, err = s.ExecProperties()
	if err != nil || got != (ExecProperties{TaskConcurrency: 4, MaxMemorySet: true, MaxRun: 1500 * time.Millisecond}) {
		t.Fatalf("parsed = %+v, %v", got, err)
	}
	for prop, bad := range map[string]string{"task_concurrency": "0", "query_max_memory": "lots", "query_max_run_ms": "banana"} {
		s := &Session{Properties: map[string]string{prop: bad}}
		if _, err := s.ExecProperties(); err == nil || !strings.Contains(err.Error(), "session: bad "+prop) {
			t.Errorf("%s=%q: err = %v", prop, bad, err)
		}
	}
	// A name outside the list (misspelt, or retired) is refused, not ignored.
	s = &Session{Properties: map[string]string{"task_concurency": "4", "task_concurrency": "4"}}
	_, err = s.ExecProperties()
	if err == nil || !strings.Contains(err.Error(), `unknown property "task_concurency"`) ||
		!strings.Contains(err.Error(), strings.Join(sessionProperties, ", ")) {
		t.Errorf("err = %v, want the unknown name and the known ones listed", err)
	}
}

// TestOrderingNestedTypesRefused: the sort and min/max compare scalars
// only, so ORDER BY, min and max over an array, map or row fail analysis
// with an error naming the type, while GROUP BY, DISTINCT and count over
// them still plan.
func TestOrderingNestedTypesRefused(t *testing.T) {
	analyze := func(query string) error {
		a := &Analyzer{Catalogs: testCatalogs(t), Session: &Session{Catalog: "memory", Schema: "s"}}
		_, err := a.Analyze(parseQuery(t, query))
		return err
	}
	for col, typ := range map[string]string{"a": "array(bigint)", "m": "map(varchar, bigint)", "r": "row(x bigint)"} {
		for _, q := range []string{
			"SELECT %[1]s FROM n ORDER BY %[1]s",
			"SELECT %[1]s FROM n ORDER BY 1 DESC",
			"SELECT %[1]s, count(*) FROM n GROUP BY %[1]s ORDER BY %[1]s",
			"SELECT min(%[1]s) FROM n",
			"SELECT max(%[1]s) FROM n",
		} {
			query := fmt.Sprintf(q, col)
			var refused *notOrderableError
			if err := analyze(query); !errors.As(err, &refused) || !strings.Contains(err.Error(), typ) {
				t.Errorf("%s: err = %v, want a refusal naming %s", query, err, typ)
			}
		}
		query := fmt.Sprintf("SELECT %[1]s, count(%[1]s), count(DISTINCT %[1]s) FROM n GROUP BY %[1]s", col)
		if err := analyze(query); err != nil {
			t.Errorf("%s: %v", query, err)
		}
	}
}
