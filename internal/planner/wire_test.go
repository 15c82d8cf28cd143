package planner

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/connectors/mysql"
	"prestolite/internal/druid"
	"prestolite/internal/expr"
	"prestolite/internal/frame"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/mysqlite"
	"prestolite/internal/types"
)

// wireCatalogs registers one connector of every kind that ships handles to
// workers. Reading a handle needs only the connector, not its tables.
func wireCatalogs(t testing.TB) *connector.Registry {
	t.Helper()
	reg := connector.NewRegistry()
	reg.Register("hive", hive.New("hive", metastore.New(), hdfs.New(hdfs.Config{}), hive.Options{}))
	reg.Register("druid", druidconn.New("druid", &druid.EmbeddedClient{Store: druid.NewStore()}))
	reg.Register("memory", memory.New("memory"))
	reg.Register("mysql", mysql.New("mysql", "db", mysqlite.New()))
	return reg
}

// wireHandles are one handle of every connector that ships them, each with
// the pushed state its connector can carry.
func wireHandles(t testing.TB) map[string]connector.TableHandle {
	t.Helper()
	pred, err := expr.Marshal(expr.MustCall("gt", expr.NewVariable("a", 0, types.Bigint), expr.NewConstant(int64(1), types.Bigint)))
	if err != nil {
		t.Fatal(err)
	}
	cols := []connector.Column{{Name: "country", Type: types.Varchar}, {Name: "clicks", Type: types.Bigint}}
	return map[string]connector.TableHandle{
		"hive": &hive.TableHandle{
			Schema: "rawdata", Table: "trips",
			PartitionPreds: []expr.Comparison{{Column: "datestr", Op: expr.OpIn, Values: []any{"2017-03-01", "2017-03-02"}}},
			DataPreds: []expr.Comparison{
				{Column: "base.fare", Op: expr.OpGt, Values: []any{2.5}},
				{Column: "base.city_id", Op: expr.OpNeq, Values: []any{int64(-7)}},
				{Column: "base.surge", Op: expr.OpEq, Values: []any{true}},
			},
			Projection:  []int{1, 0},
			NestedPaths: []string{"base.city_id", "base.fare"},
			Limit:       -1,
		},
		"druid": &druidconn.TableHandle{
			Table: "events", Columns: cols,
			Filters:      []expr.Comparison{{Column: "country", Op: expr.OpEq, Values: []any{"us"}}},
			Aggregations: []druid.Aggregation{{Func: "sum", Column: "clicks", Name: "s"}, {Func: "count", Name: "n"}},
			GroupByNames: []string{"country"},
			AggPushed:    true,
			Limit:        10,
		},
		"memory": &memory.TableHandle{Schema: "s", Table: "t", PredicateJSON: pred, Projection: []int{}, Limit: 3},
		"mysql": &mysql.TableHandle{
			Table: "users", Columns: cols,
			Predicates: []expr.Comparison{{Column: "clicks", Op: expr.OpLte, Values: []any{int64(5)}}},
			Limit:      -1,
		},
	}
}

// wirePlan builds a plan with every node type and every expression kind, over
// a scan of every connector.
func wirePlan(t testing.TB) Node {
	handles := wireHandles(t)
	bigint := types.Bigint
	row := types.NewRow(types.Field{Name: "city_id", Type: bigint}, types.Field{Name: "geo", Type: types.NewRow(types.Field{Name: "lat", Type: types.Double})})
	scan := func(catalog string, cols ...Column) *TableScan {
		ords := make([]int, len(cols))
		for i := range ords {
			ords[i] = i
		}
		return &TableScan{Catalog: catalog, Schema: "s", Table: "t", Handle: handles[catalog], Cols: cols, ColumnOrdinals: ords}
	}
	a := expr.NewVariable("a", 0, bigint)
	hiveScan := scan("hive", Column{Name: "a", Type: bigint}, Column{Name: "base", Type: row})
	filter := &Filter{Child: hiveScan, Predicate: expr.And(
		expr.MustCall("gt", a, expr.NewConstant(int64(1), bigint)),
		expr.Not(&expr.SpecialForm{Form: expr.FormIsNull, Args: []expr.RowExpression{a}, Ret: types.Boolean}),
		&expr.SpecialForm{Form: expr.FormIn, Args: []expr.RowExpression{a, expr.NewConstant(int64(2), bigint), expr.NewConstant(int64(3), bigint)}, Ret: types.Boolean},
	)}
	deref, err := expr.Dereference(expr.NewVariable("base", 1, row), "city_id")
	if err != nil {
		t.Fatal(err)
	}
	project := &Project{Child: filter, Names: []string{"a", "city", "x", "f", "n"}, Exprs: []expr.RowExpression{
		a, deref,
		&expr.Call{Handle: expr.FunctionHandle{Name: "transform", ArgTypes: []string{"array(bigint)", "function"}, ReturnType: "array(bigint)"},
			Args: []expr.RowExpression{expr.NewConstant([]any{int64(1), nil}, types.NewArray(bigint)),
				&expr.Lambda{Params: []string{"x"}, ParamTypes: []*types.Type{bigint}, Body: expr.NewVariable("x", 0, bigint)}},
			Ret: types.NewArray(bigint)},
		expr.NewConstant(1.5, types.Double),
		expr.Null(),
	}}
	agg := &Aggregate{Child: project, GroupBy: []int{0}, Step: AggPartial, Aggs: []Aggregation{
		{FuncName: "count", OutputName: "c", InterType: bigint, FinalType: bigint},
		{FuncName: "sum", Args: []int{1}, ArgTypes: []*types.Type{bigint}, Distinct: true, OutputName: "s", InterType: bigint, FinalType: bigint},
	}}
	values := &Values{
		Cols: []Column{{Name: "k", Type: bigint}, {Name: "m", Type: types.NewMap(types.Varchar, bigint)}, {Name: "b", Type: types.Boolean}, {Name: "v", Type: types.Varchar}},
		Rows: [][]any{{int64(1), [][2]any{{"x", int64(1)}, {"y", nil}}, true, "one"}, {nil, nil, false, ""}},
	}
	join := &Join{Kind: JoinLeft, Left: agg, Right: values, LeftKeys: []int{0}, RightKeys: []int{0},
		Residual: expr.MustCall("lt", expr.NewVariable("c", 1, bigint), expr.NewVariable("k", 2, bigint))}
	geo := &GeoJoin{
		Left:  scan("druid", Column{Name: "country", Type: types.Varchar}, Column{Name: "clicks", Type: bigint}),
		Right: scan("mysql", Column{Name: "country", Type: types.Varchar}, Column{Name: "clicks", Type: bigint}),
		Lng:   expr.NewConstant(1.0, types.Double), Lat: expr.NewConstant(2.0, types.Double), ShapeChan: 0,
	}
	union := &Union{Sources: []Node{
		&Project{Child: join, Names: []string{"a"}, Exprs: []expr.RowExpression{a}},
		&Project{Child: geo, Names: []string{"a"}, Exprs: []expr.RowExpression{expr.NewVariable("clicks", 1, bigint)}},
		&Project{Child: scan("memory", Column{Name: "a", Type: bigint}), Names: []string{"a"}, Exprs: []expr.RowExpression{a}},
		&RemoteSource{FragmentID: 3, Cols: []Column{{Name: "a", Type: bigint}}},
		&Project{Child: &TableScan{Catalog: "x", Schema: "s", Table: "t", Cols: []Column{{Name: "a", Type: bigint}}, ColumnOrdinals: []int{0}},
			Names: []string{"a"}, Exprs: []expr.RowExpression{a}},
	}}
	return &Output{Child: &Limit{Child: &Sort{Child: union, Keys: []SortKey{{Channel: 0, Desc: true}}}, N: 5}, Names: []string{"answer"}}
}

// TestPlanWireRoundTrip: plans ship to workers in their binary form, and one
// that is read back encodes to the same bytes and renders the same plan —
// every node type, every expression kind, and a scan of every connector that
// ships handles; handles and splits read back equal to what was written.
func TestPlanWireRoundTrip(t *testing.T) {
	reg := wireCatalogs(t)
	plans := []Node{wirePlan(t)}
	for _, q := range []string{
		"SELECT b, count(*) FROM t WHERE a > 1 GROUP BY b",
		"SELECT t.b, u.d FROM t JOIN u ON t.a = u.a WHERE t.c < 2.5 ORDER BY t.b DESC LIMIT 3",
		"SELECT a FROM t WHERE b IN ('x', 'y') AND c IS NOT NULL",
		"SELECT cardinality(a), element_at(m, 'k'), r.x FROM n",
	} {
		n := plan(t, q, true)
		plans = append(plans, n)
		fp := (&Fragmenter{}).Fragment(n)
		plans = append(plans, fp.Root.Root)
		for _, frag := range fp.Sources {
			plans = append(plans, frag.Root)
		}
	}
	for _, p := range plans {
		data := Encode(p)
		back, err := Decode(data, reg)
		if err != nil {
			t.Fatalf("decode:\n%s: %v", Format(p), err)
		}
		if again := Encode(back); !bytes.Equal(again, data) {
			t.Errorf("the plan does not encode back to its bytes:\n%s", Format(p))
		}
		if Format(back) != Format(p) {
			t.Errorf("the wire changed the plan:\n%s\nvs\n%s", Format(back), Format(p))
		}
	}

	handles := wireHandles(t)
	// A hive scan that absorbed a global aggregate, under the FINAL that
	// merges its splits' partial rows.
	hiveAggs := &hive.TableHandle{
		Schema: "web", Table: "events_hist",
		DataPreds: []expr.Comparison{{Column: "ts", Op: expr.OpLt, Values: []any{int64(1000000)}}},
		Limit:     -1,
		Aggs:      []hive.Aggregate{{Func: "count", Column: -1}, {Func: "max", Column: 0}, {Func: "min", Column: 1}, {Func: "count", Column: 2}},
	}
	bigint := types.Bigint
	aggScan := &TableScan{Catalog: "hive", Schema: "web", Table: "events_hist", Handle: hiveAggs, PushedAgg: "n := count(*), m := max(ts)",
		Cols: []Column{{Name: "n", Type: bigint}, {Name: "m", Type: bigint}}, ColumnOrdinals: []int{0, 1}}
	final := FinalOver(aggScan, &Aggregate{Child: aggScan, Step: AggPartial, Aggs: []Aggregation{
		{FuncName: "count", OutputName: "n", InterType: bigint, FinalType: bigint},
		{FuncName: "max", Args: []int{1}, ArgTypes: []*types.Type{bigint}, OutputName: "m", InterType: bigint, FinalType: bigint},
	}})
	data := Encode(final)
	if back, err := Decode(data, reg); err != nil {
		t.Fatalf("decode:\n%s: %v", Format(final), err)
	} else if again := Encode(back); !bytes.Equal(again, data) || Format(back) != Format(final) || !strings.Contains(Format(back), "aggregates=[count(*) max(#0) min(#1) count(#2)]") {
		t.Errorf("the pushed aggregates do not survive the wire:\n%s\nvs\n%s", Format(back), Format(final))
	}

	splits := map[string]connector.Split{
		"hive":            &hive.Split{Handle: handles["hive"].(*hive.TableHandle), Path: "/w/trips/datestr=2017-03-01/0.parquet", PartitionValues: map[string]string{"datestr": "2017-03-01", "region": "us"}},
		"druid":           &druidconn.Split{Handle: handles["druid"].(*druidconn.TableHandle)},
		"memory":          &memory.Split{Handle: handles["memory"].(*memory.TableHandle), PageStart: 2, PageEnd: 9},
		"mysql":           &mysql.Split{Handle: handles["mysql"].(*mysql.TableHandle)},
		"hive aggregates": &hive.Split{Handle: hiveAggs, Path: "/warehouse/web/events_hist/datestr=2017-03-01/part-00000", PartitionValues: map[string]string{"datestr": "2017-03-01"}},
	}
	handles["hive aggregates"] = hiveAggs
	for name, split := range splits {
		catalog, _, _ := strings.Cut(name, " ")
		conn, err := reg.Get(catalog)
		if err != nil {
			t.Fatal(err)
		}
		dec := conn.(connector.Decoder)
		for i, v := range []connector.Encoder{handles[name].(connector.Encoder), split.(connector.Encoder)} {
			data := v.AppendWire(nil)
			r := frame.NewReader(data)
			var back any
			if i == 0 {
				back = dec.DecodeHandle(r)
			} else {
				back = dec.DecodeSplit(r)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("%s: %T: %v", name, v, err)
			}
			if !reflect.DeepEqual(back, v) {
				t.Errorf("%s: %T read back as\n%+v, want\n%+v", name, v, back, v)
			}
			if again := back.(connector.Encoder).AppendWire(nil); !bytes.Equal(again, data) {
				t.Errorf("%s: %T does not encode back to its bytes", name, v)
			}
		}
	}
}
