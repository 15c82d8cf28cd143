package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/hybrid"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/connectors/mysql"
	"prestolite/internal/druid"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/mysqlite"
	"prestolite/internal/types"
)

// Pushdown on/off differential, without a knob: every statement runs against
// each connector as it is and behind `bare`, which hides every optional
// capability, so the engine filters, projects, limits and aggregates the
// connector's raw rows itself. The two must agree row for row.

// bare promotes only the four mandatory connector.Connector methods: every
// capability type-assertion the optimizer makes on it fails.
type bare struct{ connector.Connector }

// pushdownRows is the one data set every connector holds as table t:
// id bigint (never NULL, the hybrid time column and mysql's primary key),
// n bigint, d double and s varchar, each with NULLs.
func pushdownRows() [][]any {
	strs := []string{"a", "ab", "b", "san francisco", "san", "francisco", "c,d"}
	rows := make([][]any, 48)
	for i := range rows {
		row := []any{int64(i), int64(i % 10), float64(i%8) + 0.5*float64(i%2), strs[i%len(strs)]}
		if i%7 == 3 {
			row[1] = nil
		}
		if i%5 == 4 {
			row[2] = nil
		}
		if i%6 == 5 {
			row[3] = nil
		}
		rows[i] = row
	}
	return rows
}

var pushdownCols = []connector.Column{
	{Name: "id", Type: types.Bigint},
	{Name: "n", Type: types.Bigint},
	{Name: "d", Type: types.Double},
	{Name: "s", Type: types.Varchar},
}

const pushdownHybridBoundary = 20

type pushdownCase struct {
	where string
	// sel overrides the select list (hive's nested columns).
	sel string
	// engineFilter is what a connector that lowers comparisons leaves to the
	// engine: "" no Filter node at all, otherwise a substring of the
	// remaining Filter.
	engineFilter string
}

var pushdownCases = []pushdownCase{
	{where: "n = 3"},
	{where: "n <> 3"}, // a NULL n matches neither this nor the one above
	{where: "7 < n"},  // flipped operands
	{where: "3 >= n"},
	{where: "id = 7"}, // mysql's primary-key lookup
	{where: "id = 7 AND n = 8"},
	{where: "id >= 20"}, // the hybrid table prunes its historical side
	{where: "id < 5"},
	{where: "19 < id AND id <= 21"}, // straddles the hybrid boundary
	{where: "s = 'san francisco'"},
	{where: "s <> 'a'"},
	{where: "s < 'b'"},
	{where: "s IN ('san francisco')"},
	{where: "s IN ('san', 'francisco')"},
	{where: "s IN ('c,d', 'a')"},
	{where: "s IN ('c', 'd', 'a')"},
	{where: "n IN (1, 2, 3)"},
	{where: "s = 'a' AND s = 'b'"}, // contradictory terms: zero rows
	{where: "s = 'a' AND s = 'a'"},
	{where: "n > 3 AND s LIKE 'a%'", engineFilter: "LIKE"}, // partially residual
	{where: "n = 1 OR n = 2", engineFilter: "OR"},
	{where: "n IS NULL", engineFilter: "IS NULL"},
	{where: "d > 3"},    // double column, integer literal
	{where: "d <= 2.5"}, // matches the .5 values exactly
	{where: "3 = d"},
	{where: "n > 2.5", engineFilter: "to_double(n)"}, // bigint column, fractional literal: not a bigint comparison
	{where: "n + 1 = 4", engineFilter: "n + 1"},
}

// hivePushdownCases add what only the warehouse has: a partition key and
// nested leaves, flat leaves beside them.
var hivePushdownCases = []pushdownCase{
	{where: "datestr = '2017-03-02'"},
	{where: "datestr <> '2017-03-02'"},
	{where: "'2017-03-02' <= datestr"},
	{where: "datestr IN ('2017-03-01', '2017-03-03') AND n > 4"},
	{where: "datestr IN ('2017-03-01,2017-03-03')"},
	{where: "datestr = '2017-03-02' AND s LIKE 's%'", engineFilter: "LIKE"},
	{sel: "id, base.city_id, base.fare", where: "base.city_id = 3"},
	{sel: "id, base.city_id, base.fare", where: "5 > base.city_id"},
	{sel: "id, base.tag", where: "base.tag IN ('x', 'y')"},
	{sel: "id, base.tag", where: "base.tag <> 'x' AND datestr = '2017-03-01'"},
	{sel: "id, base", where: "base.fare > 2"},
	{sel: "id, base.fare", where: "base.fare >= 1.5 AND n < 6"},
	{sel: "id, base.city_id", where: "base.city_id > 1.5", engineFilter: "to_double(base.city_id)"},
}

type pushdownFixture struct {
	name, catalog, schema string
	// register installs the fixture's catalogs in e, each through wrap.
	register func(e *Engine, wrap func(connector.Connector) connector.Connector)
	// lowers says the connector absorbs comparisons and nothing else, so a
	// case's engineFilter applies; memory absorbs whole expressions.
	lowers bool
	extra  []pushdownCase
}

func pushdownFixtures(t *testing.T) []pushdownFixture {
	t.Helper()
	rows := pushdownRows()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	single := func(name, schema string, lowers bool, c connector.Connector) pushdownFixture {
		return pushdownFixture{name: name, catalog: name, schema: schema, lowers: lowers,
			register: func(e *Engine, wrap func(connector.Connector) connector.Connector) { e.Register(name, wrap(c)) }}
	}
	page := func(typs []*types.Type, rows [][]any) *block.Page {
		pb := block.NewPageBuilder(typs)
		for _, r := range rows {
			pb.AppendRow(r)
		}
		return pb.Build()
	}
	flatTypes := []*types.Type{types.Bigint, types.Bigint, types.Double, types.Varchar}
	flatCols := make([]metastore.Column, len(pushdownCols))
	for i, c := range pushdownCols {
		flatCols[i] = metastore.Column{Name: c.Name, Type: c.Type}
	}

	mem := memory.New("memory")
	check(mem.CreateTable("s", "t", pushdownCols, nil))
	check(mem.AppendRows("s", "t", rows))

	db := mysqlite.New()
	myCols := make([]mysqlite.Column, len(pushdownCols))
	for i, c := range pushdownCols {
		myCols[i] = mysqlite.Column{Name: c.Name, Type: c.Type}
	}
	_, err := db.CreateTable("t", myCols, "id")
	check(err)
	for _, r := range rows {
		check(db.Insert("t", r))
	}

	druidCols := make([]druid.Column, len(pushdownCols))
	for i, c := range pushdownCols {
		druidCols[i] = druid.Column{Name: c.Name, Type: c.Type}
	}
	store := druid.NewStore()
	dt, err := store.CreateTable("t", druidCols)
	check(err)
	check(dt.Ingest(rows))
	// The hybrid table's real-time side: rows from the boundary on, plus
	// duplicates of earlier rows that the boundary predicate must exclude.
	rt, err := store.CreateTable("t_rt", druidCols)
	check(err)
	check(rt.Ingest(append(append([][]any(nil), rows[pushdownHybridBoundary:]...), rows[:8]...)))
	druidConn := druidconn.New("druid", &druid.EmbeddedClient{Store: store})

	// The warehouse table adds a struct column with NULL fields and is
	// partitioned three ways; the hybrid table's history is flat.
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	baseType := types.NewRow(
		types.Field{Name: "city_id", Type: types.Bigint},
		types.Field{Name: "fare", Type: types.Double},
		types.Field{Name: "tag", Type: types.Varchar},
	)
	parts := map[string][][]any{}
	for i, r := range rows {
		base := []any{int64(i % 6), float64(i%4) + 0.5, []string{"x", "y", "z"}[i%3]}
		if i%4 == 1 {
			base[i%3] = nil
		}
		day := fmt.Sprintf("2017-03-%02d", 1+i%3)
		parts[day] = append(parts[day], append(append([]any(nil), r...), base))
	}
	partPages, sealed := map[string][]*block.Page{}, map[string]bool{}
	nestedTypes := append(append([]*types.Type(nil), flatTypes...), baseType)
	nestedCols := append(append([]metastore.Column(nil), flatCols...), metastore.Column{Name: "base", Type: baseType})
	for day, prs := range parts {
		partPages[day], sealed[day] = []*block.Page{page(nestedTypes, prs)}, true
	}
	check(loader.CreatePartitionedTable("s", "t", nestedCols, "datestr", partPages, sealed))
	check(loader.CreateTable("s", "t_hist", flatCols, []*block.Page{page(flatTypes, rows[:pushdownHybridBoundary])}))
	hiveConn := hive.New("hive", ms, fs, hive.Options{})

	hiveFix := single("hive", "s", true, hiveConn)
	hiveFix.extra = hivePushdownCases
	return []pushdownFixture{
		single("memory", "s", false, mem),
		single("mysql", "prod", true, mysql.New("mysql", "prod", db)),
		single("druid", "default", true, druidConn),
		hiveFix,
		{name: "hybrid", catalog: "hybrid", schema: "default", lowers: true,
			register: func(e *Engine, wrap func(connector.Connector) connector.Connector) {
				e.Register("hive", wrap(hiveConn))
				e.Register("druid", wrap(druidConn))
				hc := hybrid.New("hybrid", e.Catalogs) // expanded by the planner, so never wrapped
				check(hc.AddTable("t", hybrid.TableConfig{
					Historical: connector.HybridPart{Catalog: "hive", Schema: "s", Table: "t_hist"},
					Realtime:   connector.HybridPart{Catalog: "druid", Schema: "default", Table: "t_rt"},
					TimeColumn: "id",
					Boundary:   pushdownHybridBoundary,
				}))
				e.Register("hybrid", hc)
			}},
	}
}

// sortedRows renders rows for comparison as a multiset.
func sortedRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(out)
	return out
}

func TestPushdownOnOffDifferential(t *testing.T) {
	for _, fx := range pushdownFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			pushed, plain := New(), New()
			fx.register(pushed, func(c connector.Connector) connector.Connector { return c })
			fx.register(plain, func(c connector.Connector) connector.Connector { return bare{c} })
			session := DefaultSession(fx.catalog, fx.schema)

			// rowsByPlan: statements whose optimized plans render alike must
			// select the same rows, or EXPLAIN hides what a plan selects.
			rowsByPlan := map[string][]string{}
			wherePushed := 0
			for _, tc := range append(append([]pushdownCase(nil), pushdownCases...), fx.extra...) {
				sel := tc.sel
				if sel == "" {
					sel = "id, n, d, s"
				}
				for _, stmt := range []string{
					"SELECT " + sel + " FROM t WHERE " + tc.where,
					"SELECT count(*), count(n), sum(id) FROM t WHERE " + tc.where,
					"SELECT id FROM t WHERE " + tc.where + " ORDER BY id LIMIT 3",
					// Grouped, every absorbable aggregate and avg beside them:
					// on the hybrid table this is partial pushdown on and off,
					// with NULLs on both sides of the boundary.
					"SELECT s, count(*), count(n), sum(n), min(d), max(d), avg(d) FROM t WHERE " + tc.where + " GROUP BY s",
					// Global count/min/max: hive answers the first from its
					// footers; a double min or max keeps the second whole.
					"SELECT count(*), count(n), min(id), max(id), min(s), max(s) FROM t WHERE " + tc.where,
					"SELECT count(*), count(n), min(id), max(id), min(s), max(s), min(d), max(d) FROM t WHERE " + tc.where,
				} {
					got, err := pushed.Query(session, stmt)
					if err != nil {
						t.Fatalf("%s: %v", stmt, err)
					}
					want, err := plain.Query(session, stmt)
					if err != nil {
						t.Fatalf("%s (bare): %v", stmt, err)
					}
					g, w := sortedRows(got.Rows()), sortedRows(want.Rows())
					if !reflect.DeepEqual(g, w) {
						t.Errorf("%s:\npushed down: %v\nbare:        %v", stmt, g, w)
					}
					plan, err := pushed.Explain(session, stmt)
					if err != nil {
						t.Fatal(err)
					}
					if prev, dup := rowsByPlan[plan]; dup && !reflect.DeepEqual(prev, g) {
						t.Errorf("%s shares its plan text with a statement that selects other rows:\n%s", stmt, plan)
					}
					rowsByPlan[plan] = g
				}

				plan, err := pushed.Explain(session, "SELECT "+sel+" FROM t WHERE "+tc.where)
				if err != nil {
					t.Fatal(err)
				}
				var filters []string
				for _, line := range strings.Split(plan, "\n") {
					if strings.Contains(line, "- Filter[") {
						filters = append(filters, line)
					}
				}
				if len(filters) == 0 {
					wherePushed++
				}
				switch {
				case !fx.lowers:
				case tc.engineFilter == "" && len(filters) > 0:
					t.Errorf("WHERE %s: the engine still filters:\n%s", tc.where, plan)
				case tc.engineFilter != "" && !strings.Contains(strings.Join(filters, "\n"), tc.engineFilter):
					t.Errorf("WHERE %s: want %q left to the engine:\n%s", tc.where, tc.engineFilter, plan)
				}
			}
			if wherePushed == 0 {
				t.Error("no statement's WHERE was absorbed: the differential compares nothing")
			}
			if plan, _ := plain.Explain(session, "SELECT id FROM t WHERE n = 3 LIMIT 1"); !strings.Contains(plan, "- Filter[") || !strings.Contains(plan, "- Limit[") {
				t.Errorf("the bare connector still absorbs work:\n%s", plan)
			}
		})
	}
}
