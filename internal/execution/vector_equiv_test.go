package execution

// Property-based equivalence suite for the vectorized kernels: random
// schemas, encodings, NULL densities, cardinalities and driver counts are
// generated from a seed, run through the vectorized operators, and compared
// row-exactly against an oracle that shares no hash table, key encoding or
// kernel with them: boxedAggregate for aggregations, and a boxed
// nested-loop join for joins. Every failure logs its seed; replay one with
// EQUIV_SEED=<seed> go test -run TestVector.*Equivalence ./internal/execution/.
//
// DOUBLE columns only hold multiples of 0.5 with small magnitudes, so
// floating-point sums are exact regardless of addition order — that is what
// makes row-exact comparison valid across driver counts and partial/final
// splits that add values in different orders.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// equivSeeds returns the seeds to run, honoring an EQUIV_SEED override.
func equivSeeds(t *testing.T) []int64 {
	if env := os.Getenv("EQUIV_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad EQUIV_SEED %q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 7, 42, 1234}
}

// ---------------------------------------------------------------------------
// Connector serving pre-generated pages.

type equivSplit struct{ pages []*block.Page }

func (s *equivSplit) Description() string { return "equiv split" }

type equivHandle struct{ name string }

func (h equivHandle) Description() string { return h.name }

type equivConnector struct{ splits []connector.Split }

func (c *equivConnector) Name() string                                   { return "equiv" }
func (c *equivConnector) Metadata() connector.Metadata                   { return nil }
func (c *equivConnector) SplitManager() connector.SplitManager           { return c }
func (c *equivConnector) RecordSetProvider() connector.RecordSetProvider { return c }

func (c *equivConnector) Splits(connector.TableHandle) ([]connector.Split, error) {
	return c.splits, nil
}

func (c *equivConnector) CreatePageSource(_ connector.TableHandle, split connector.Split, columns []int) (connector.PageSource, error) {
	return &equivPageSource{pages: split.(*equivSplit).pages, columns: columns}, nil
}

type equivPageSource struct {
	pages   []*block.Page
	columns []int
	pos     int
}

func (s *equivPageSource) Next() (*block.Page, error) {
	if s.pos >= len(s.pages) {
		return nil, io.EOF
	}
	p := s.pages[s.pos]
	s.pos++
	blocks := make([]block.Block, len(s.columns))
	for i, ord := range s.columns {
		blocks[i] = p.Blocks[ord]
	}
	return block.NewPage(blocks...), nil
}

func (s *equivPageSource) Close() error { return nil }

// ---------------------------------------------------------------------------
// Random data generation.

// equivColSpec describes one generated column: its type, the size of its
// value domain (key cardinality) and the probability of NULL per row.
type equivColSpec struct {
	name    string
	typ     *types.Type
	card    int
	nullDen float64
	values  []any // the value domain, when not equivValue's
}

// value is the column's value for domain index d.
func (s equivColSpec) value(d int) any {
	if s.values != nil {
		return s.values[d%len(s.values)]
	}
	return equivValue(s.typ, d)
}

var equivTypes = []*types.Type{
	types.Bigint, types.Integer, types.Double, types.Varchar, types.Boolean, types.Date,
}

// equivRowType is the nested column type join build sides carry and
// aggregations sometimes group by.
var equivRowType = types.NewRow(types.Field{Name: "n", Type: types.Bigint}, types.Field{Name: "s", Type: types.Varchar})

func equivColSpecs(rng *rand.Rand, prefix string, n int, cards []int) []equivColSpec {
	dens := []float64{0, 0.05, 0.3}
	specs := make([]equivColSpec, n)
	for i := range specs {
		specs[i] = equivColSpec{
			name:    fmt.Sprintf("%s%d", prefix, i),
			typ:     equivTypes[rng.Intn(len(equivTypes))],
			card:    cards[rng.Intn(len(cards))],
			nullDen: dens[rng.Intn(len(dens))],
		}
	}
	return specs
}

// equivValue maps domain index d to a value of type t. DOUBLE values are
// multiples of 0.5 so any-order summation stays exact (see file comment).
func equivValue(t *types.Type, d int) any {
	switch t.Kind {
	case types.KindBigint:
		return int64(d*7 - 3)
	case types.KindInteger:
		return int64(d)
	case types.KindDate:
		return int64(18000 + d)
	case types.KindDouble:
		return float64(d) + 0.5
	case types.KindBoolean:
		return d%2 == 0
	case types.KindUnknown:
		return nil
	case types.KindRow:
		return []any{int64(d), "v" + strconv.Itoa(d)}
	default:
		return "v" + strconv.Itoa(d)
	}
}

// equivBlock generates one page column of n rows in a random physical
// encoding: flat, dictionary (possibly with duplicate entries and -1 null
// ids, over entries in any encoding — a dictionary or run-length block
// under a dictionary is what the typed views reject) or run-length
// (constant page).
func equivBlock(rng *rand.Rand, spec equivColSpec, n int) block.Block {
	switch rng.Intn(4) {
	case 0: // run-length: the whole page shares one value (or NULL)
		var v any
		if rng.Float64() >= spec.nullDen {
			v = spec.value(rng.Intn(spec.card))
		}
		return block.NewRunLengthBlock(block.SingleValue(spec.typ, v), n)
	case 1: // dictionary
		m := 1 + rng.Intn(8)
		dict := equivBlock(rng, spec, m)
		ids := make([]int32, n)
		for i := range ids {
			if rng.Float64() < spec.nullDen {
				ids[i] = -1
			} else {
				ids[i] = int32(rng.Intn(m))
			}
		}
		return &block.DictionaryBlock{Dictionary: dict, Ids: ids}
	default: // flat
		vals := make([]any, n)
		for i := range vals {
			if rng.Float64() >= spec.nullDen {
				vals[i] = spec.value(rng.Intn(spec.card))
			}
		}
		return block.FromValues(spec.typ, vals...)
	}
}

// equivScan builds a table scan over `target` generated rows dealt into
// random page sizes across a random number of splits.
func equivScan(rng *rand.Rand, catalog string, specs []equivColSpec, target int) (*planner.TableScan, *equivConnector) {
	var sizes []int
	for remaining := target; remaining > 0; {
		n := 1 + rng.Intn(256)
		if n > remaining {
			n = remaining
		}
		sizes = append(sizes, n)
		remaining -= n
	}
	nsplits := 1 + rng.Intn(4)
	pages := make([][]*block.Page, nsplits)
	for i, n := range sizes {
		blocks := make([]block.Block, len(specs))
		for j, spec := range specs {
			blocks[j] = equivBlock(rng, spec, n)
		}
		pages[i%nsplits] = append(pages[i%nsplits], block.NewPage(blocks...))
	}
	c := &equivConnector{}
	for _, p := range pages {
		c.splits = append(c.splits, &equivSplit{pages: p})
	}
	cols := make([]planner.Column, len(specs))
	ords := make([]int, len(specs))
	for i, spec := range specs {
		cols[i] = planner.Column{Name: spec.name, Type: spec.typ}
		ords[i] = i
	}
	scan := &planner.TableScan{
		Catalog: catalog, Schema: "s", Table: catalog, Handle: equivHandle{catalog},
		Cols: cols, ColumnOrdinals: ords,
	}
	return scan, c
}

// equivAggs picks one aggregate per non-key column (type-compatible, typed
// through the same registry resolution the analyzer uses) plus count(*).
// With distinct, any but approx_distinct may be DISTINCT.
func equivAggs(rng *rand.Rand, specs []equivColSpec, nKeys int, distinct bool) []planner.Aggregation {
	aggs := []planner.Aggregation{{
		FuncName: "count", OutputName: "cnt", InterType: types.Bigint, FinalType: types.Bigint,
	}}
	for j := nKeys; j < len(specs); j++ {
		t := specs[j].typ
		fns := []string{"count", "min", "max", "approx_distinct"}
		if t.Kind == types.KindInteger || t.Kind == types.KindBigint || t.Kind == types.KindDouble {
			fns = []string{"count", "sum", "min", "max", "avg", "approx_distinct"}
		}
		name := fns[rng.Intn(len(fns))]
		fn, err := expr.ResolveAggregate(name, []*types.Type{t})
		if err != nil {
			continue
		}
		aggs = append(aggs, planner.Aggregation{
			FuncName: name, Args: []int{j}, ArgTypes: []*types.Type{t},
			Distinct:   distinct && name != "approx_distinct" && rng.Intn(2) == 0,
			OutputName: fmt.Sprintf("a%d", j),
			InterType:  fn.IntermediateType([]*types.Type{t}),
			FinalType:  fn.FinalType([]*types.Type{t}),
		})
	}
	return aggs
}

// maybeFilter wraps node in a random comparison filter over one column when
// the function registry supports it — exercising the selection-vector
// kernels (including dictionary/RLE fast paths) inside full plans.
func maybeFilter(rng *rand.Rand, node planner.Node, specs []equivColSpec) planner.Node {
	if rng.Intn(2) == 0 {
		return node
	}
	ch := rng.Intn(len(specs))
	spec := specs[ch]
	v := expr.NewVariable(spec.name, ch, spec.typ)
	var pred expr.RowExpression
	var err error
	if spec.typ.Kind == types.KindBoolean {
		pred, err = expr.NewCall("eq", v, expr.NewConstant(true, types.Boolean))
	} else {
		pred, err = expr.NewCall("lt", v, expr.NewConstant(equivValue(spec.typ, spec.card/2), spec.typ))
	}
	if err != nil {
		return node
	}
	return &planner.Filter{Child: node, Predicate: pred}
}

// ---------------------------------------------------------------------------
// Running and comparing.

// equivConfig is one engine configuration a generated plan runs under.
type equivConfig struct {
	name     string
	drivers  int
	adaptive int // adaptiveExchangeRows: 0 default, >0 low threshold, <0 off
	bypass   int // partialAggBypassRows: 0 default, >0 eager trigger, <0 off
}

// equivConfigs covers driver counts × adaptive-exchange modes × partial
// bypass modes.
var equivConfigs = []equivConfig{
	{name: "vector-1", drivers: 1},
	{name: "vector-2", drivers: 2},
	{name: "vector-8", drivers: 8},
	{name: "vector-8-forcepartition", drivers: 8, adaptive: 1},
	{name: "vector-4-noadaptive", drivers: 4, adaptive: -1},
	// bypass: 1 arms adaptive partial aggregation on the first ratio check
	// (any partial seeing <20% reduction streams through); -1 pins the
	// always-hash behavior the other configs mostly exhibit anyway.
	{name: "vector-4-bypass", drivers: 4, bypass: 1},
	{name: "vector-2-forcepartition-bypass", drivers: 2, adaptive: 1, bypass: 1},
	{name: "vector-8-nobypass", drivers: 8, bypass: -1},
}

// runEquiv executes plan under cfg and returns the sorted row multiset.
func runEquiv(t *testing.T, plan planner.Node, reg *connector.Registry, cfg equivConfig) []string {
	t.Helper()
	ctx := &Context{
		Catalogs: reg, Drivers: cfg.drivers,
		adaptiveExchangeRows: cfg.adaptive, partialAggBypassRows: cfg.bypass,
	}
	op, err := Build(plan, ctx)
	if err != nil {
		t.Fatalf("%s: build: %v", cfg.name, err)
	}
	return sortedMultiset(drainRows(t, op))
}

// equivOracle is what every configuration must reproduce: the nested-loop
// join for a join, boxedAggregate for an aggregation (for a FINAL over a
// PARTIAL, over the SINGLE aggregation the two split).
func equivOracle(t *testing.T, plan planner.Node, reg *connector.Registry) []string {
	t.Helper()
	switch p := plan.(type) {
	case *planner.Join:
		return nestedLoopJoin(t, p, reg)
	case *planner.Aggregate:
		if p.Step == planner.AggFinal {
			single := *p.Child.(*planner.Aggregate)
			single.Step = planner.AggSingle
			p = &single
		}
		return boxedAggregate(t, p, serialRows(t, p.Child, reg))
	}
	t.Fatalf("no oracle for %T", plan)
	return nil
}

// serialRows drains node on one driver into boxed rows.
func serialRows(t *testing.T, node planner.Node, reg *connector.Registry) [][]any {
	t.Helper()
	op, err := Build(node, &Context{Catalogs: reg, Drivers: 1})
	if err != nil {
		t.Fatalf("oracle: build: %v", err)
	}
	return drainRows(t, op)
}

// boxedAggregate is the aggregation oracle: a SINGLE step over boxed input
// rows. A row joins the first group whose key boxedEqual calls equal to its
// own, or opens a new one, which emits that first key. Each group feeds one
// expr.AggState per aggregate, and a DISTINCT aggregate only the non-NULL
// arguments that equal none in the group's seen list.
func boxedAggregate(t *testing.T, node *planner.Aggregate, rows [][]any) []string {
	t.Helper()
	type group struct {
		key    []any
		states []expr.AggState
		seen   [][]any // per aggregate: the DISTINCT arguments it took
	}
	var groups []*group
	newGroup := func(key []any) *group {
		g := &group{key: key, seen: make([][]any, len(node.Aggs))}
		for _, a := range node.Aggs {
			fn, err := expr.ResolveAggregate(a.FuncName, a.ArgTypes)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			g.states = append(g.states, fn.NewState(a.ArgTypes))
		}
		groups = append(groups, g)
		return g
	}
	for _, row := range rows {
		key := make([]any, len(node.GroupBy))
		for i, ch := range node.GroupBy {
			key[i] = row[ch]
		}
		var g *group
		for _, cand := range groups {
			if boxedEqual(cand.key, key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = newGroup(key)
		}
	aggs:
		for i, a := range node.Aggs {
			vals := make([]any, len(a.Args))
			for j, ch := range a.Args {
				vals[j] = row[ch]
			}
			if a.Distinct {
				if vals[0] == nil {
					continue
				}
				for _, seen := range g.seen[i] {
					if boxedEqual(seen, vals) {
						continue aggs
					}
				}
				g.seen[i] = append(g.seen[i], vals)
			}
			g.states[i].Add(vals)
		}
	}
	if len(node.GroupBy) == 0 && len(groups) == 0 {
		newGroup(nil)
	}
	out := make([][]any, len(groups))
	for i, g := range groups {
		for _, k := range g.key {
			if x, ok := k.(float64); ok && x == 0 {
				k = 0.0 // −0.0 and +0.0 are one group, which emits +0.0
			}
			out[i] = append(out[i], k)
		}
		for _, st := range g.states {
			out[i] = append(out[i], st.Final())
		}
	}
	return sortedMultiset(out)
}

// boxedEqual is the key equality the aggregation oracle groups by: NULL
// equals NULL, −0.0 equals +0.0, a NaN equals a NaN, and arrays, rows and
// maps are equal element by element.
func boxedEqual(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (x == y || x != x && y != y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !boxedEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case [][2]any:
		y, ok := b.([][2]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !boxedEqual(x[i][0], y[i][0]) || !boxedEqual(x[i][1], y[i][1]) {
				return false
			}
		}
		return true
	}
	return a == b
}

// nestedLoopJoin is the join oracle. It drains both sides serially, boxes
// every row and tests every (left, right) pair: the keys with == on the
// boxed values (so a NULL or NaN key equals nothing and −0.0 equals +0.0),
// then the residual through expr.EvalRowValue. A LEFT join's left rows that
// no pair kept get NULLs for the right columns. It shares no hash table,
// key encoding or batch code with the join under test.
func nestedLoopJoin(t *testing.T, j *planner.Join, reg *connector.Registry) []string {
	t.Helper()
	left, right := serialRows(t, j.Left, reg), serialRows(t, j.Right, reg)
	var out [][]any
	for _, l := range left {
		matched := false
	pairs:
		for _, r := range right {
			for i, lk := range j.LeftKeys {
				if a, b := l[lk], r[j.RightKeys[i]]; a == nil || b == nil || a != b {
					continue pairs
				}
			}
			row := append(append([]any{}, l...), r...)
			if j.Residual != nil {
				v, err := expr.EvalRowValue(j.Residual, row)
				if err != nil {
					t.Fatalf("oracle: residual: %v", err)
				}
				if v != true {
					continue
				}
			}
			matched = true
			out = append(out, row)
		}
		if !matched && j.Kind == planner.JoinLeft {
			out = append(out, append(append([]any{}, l...), make([]any, len(j.Right.Outputs()))...))
		}
	}
	return sortedMultiset(out)
}

func checkEquivalence(t *testing.T, seed int64, plan planner.Node, reg *connector.Registry) {
	t.Helper()
	want := equivOracle(t, plan, reg)
	for _, cfg := range equivConfigs {
		got := runEquiv(t, plan, reg, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d, %s: %d rows diverge from reference's %d\nplan:\n%s",
				seed, cfg.name, len(got), len(want), planner.Format(plan))
			return
		}
	}
}

// ---------------------------------------------------------------------------
// The suites.

// TestVectorAggEquivalence: random grouped aggregations (random key types,
// sometimes with a row key and a NULL-literal key, cardinalities, NULL
// densities, encodings, optional filter, every registered aggregate, some
// DISTINCT) must return boxedAggregate's rows at any driver count — as one
// SINGLE step or, without DISTINCT, as a FINAL over a PARTIAL.
func TestVectorAggEquivalence(t *testing.T) {
	for _, seed := range equivSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 3; trial++ {
				specs := equivColSpecs(rng, "k", 1+rng.Intn(2), []int{1, 2, 5, 40, 300})
				if rng.Intn(3) == 0 {
					specs = append(specs, equivColSpec{name: "krow", typ: equivRowType, card: 20, nullDen: 0.1})
				}
				if rng.Intn(3) == 0 {
					specs = append(specs, equivColSpec{name: "knull", typ: types.Unknown, card: 1, nullDen: 1})
				}
				nKeys := len(specs)
				specs = append(specs, equivColSpecs(rng, "v", 1+rng.Intn(2), []int{7, 1000})...)
				scan, conn := equivScan(rng, "t", specs, rng.Intn(3000))
				reg := connector.NewRegistry()
				reg.Register("t", conn)
				child := maybeFilter(rng, scan, specs)
				groupBy := make([]int, nKeys)
				for i := range groupBy {
					groupBy[i] = i
				}
				agg := &planner.Aggregate{
					Child: child, GroupBy: groupBy,
					Aggs: equivAggs(rng, specs, nKeys, true), Step: planner.AggSingle,
				}
				var plan planner.Node = agg
				if !slices.ContainsFunc(agg.Aggs, func(a planner.Aggregation) bool { return a.Distinct }) && rng.Intn(2) == 0 {
					partial := *agg
					partial.Step = planner.AggPartial
					plan = planner.FinalOver(&partial, agg)
				}
				checkEquivalence(t, seed, plan, reg)
			}
		})
	}
}

// TestVectorGlobalAggEquivalence: a global aggregate is the vector operator's
// keyless group 0. Over empty input, all-NULL input and random input it must
// agree with boxedAggregate at 1 to 8 drivers — one output row whatever
// came in, count 0 and max NULL when nothing did — split into partials and a
// final, or, with a DISTINCT aggregate and approx_distinct, serial.
func TestVectorGlobalAggEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rows    int
		nullDen float64
		// The single row, when it is known in advance, without and with the
		// DISTINCT aggregate and approx_distinct.
		want, wantDistinct string
	}{
		{name: "empty", rows: 0, want: "[0 <nil> <nil> 0 <nil>]", wantDistinct: "[0 <nil> <nil> 0 <nil> <nil> 0]"},
		{name: "all NULL", rows: 700, nullDen: 1, want: "[700 <nil> <nil> 0 <nil>]", wantDistinct: "[700 <nil> <nil> 0 <nil> <nil> 0]"},
		{name: "random", rows: 2500, nullDen: 0.3},
	} {
		for _, seed := range equivSeeds(t) {
			rng := rand.New(rand.NewSource(seed))
			specs := []equivColSpec{
				{name: "a", typ: types.Bigint, card: 1000, nullDen: tc.nullDen},
				{name: "b", typ: types.Double, card: 500, nullDen: tc.nullDen},
				{name: "c", typ: types.Varchar, card: 40, nullDen: tc.nullDen},
			}
			scan, conn := equivScan(rng, "t", specs, tc.rows)
			reg := connector.NewRegistry()
			reg.Register("t", conn)
			agg := func(name string, ch int) planner.Aggregation {
				argTypes := []*types.Type{specs[ch].typ}
				fn, err := expr.ResolveAggregate(name, argTypes)
				if err != nil {
					t.Fatal(err)
				}
				return planner.Aggregation{FuncName: name, Args: []int{ch}, ArgTypes: argTypes, OutputName: name,
					InterType: fn.IntermediateType(argTypes), FinalType: fn.FinalType(argTypes)}
			}
			for _, distinct := range []bool{false, true} {
				aggs := []planner.Aggregation{
					{FuncName: "count", OutputName: "cnt", InterType: types.Bigint, FinalType: types.Bigint},
					agg("sum", 0), agg("avg", 1), agg("count", 2), agg("max", 2),
				}
				want := tc.want
				if distinct {
					dsum := agg("sum", 0)
					dsum.Distinct, dsum.OutputName = true, "dsum"
					aggs = append(aggs, dsum, agg("approx_distinct", 2))
					want = tc.wantDistinct
				}
				plan := &planner.Aggregate{Child: maybeFilter(rng, scan, specs), Step: planner.AggSingle, Aggs: aggs}
				checkEquivalence(t, seed, plan, reg)
				got := runEquiv(t, plan, reg, equivConfig{name: "vector-8", drivers: 8})
				if _, filtered := plan.Child.(*planner.Filter); len(got) != 1 || (want != "" && !filtered && got[0] != want) {
					t.Errorf("%s, seed %d: got %v, want the one row %s", tc.name, seed, got, want)
				}
			}
		}
	}
}

// equivJoin generates a join of kind over fresh random tables. Both sides
// share key domains, so matches occur; inner and left joins get zero to
// two keys (zero is the keyless join an ON clause without `=` plans), a
// cross join none. The build side also carries a nested column and a
// NULL-literal column, which no vector kind stores. With residual, the
// join keeps only pairs where the probe's lv < the build's rv.
func equivJoin(rng *rand.Rand, kind planner.JoinKind, residual bool) (*planner.Join, *connector.Registry) {
	var keys []equivColSpec
	if kind != planner.JoinCross {
		keys = equivColSpecs(rng, "k", rng.Intn(3), []int{10, 50, 200})
	}
	maxLeft, maxRight := 600, 250
	if len(keys) == 0 {
		maxLeft, maxRight = 120, 60 // every pair is a candidate
	}
	left := append(append([]equivColSpec{}, keys...),
		equivColSpec{name: "lv", typ: types.Bigint, card: 100, nullDen: 0.1})
	right := append(append([]equivColSpec{}, keys...),
		equivColSpec{name: "rv", typ: types.Bigint, card: 100, nullDen: 0.1},
		equivColSpec{name: "rrow", typ: equivRowType, card: 50, nullDen: 0.1},
		equivColSpec{name: "rnull", typ: types.Unknown, card: 1, nullDen: 1})
	scanL, connL := equivScan(rng, "l", left, rng.Intn(maxLeft))
	scanR, connR := equivScan(rng, "r", right, rng.Intn(maxRight))
	reg := connector.NewRegistry()
	reg.Register("l", connL)
	reg.Register("r", connR)
	jk := make([]int, len(keys))
	for i := range jk {
		jk[i] = i
	}
	plan := &planner.Join{
		Kind: kind, Left: scanL, Right: scanR,
		LeftKeys: jk, RightKeys: append([]int{}, jk...),
	}
	if residual {
		plan.Residual = expr.MustCall("lt",
			expr.NewVariable("lv", len(keys), types.Bigint),
			expr.NewVariable("rv", len(left)+len(keys), types.Bigint))
	}
	return plan, reg
}

// TestVectorJoinEquivalence: random inner, left and cross joins, each with
// and without a residual, over mixed encodings and NULL keys, must return
// the nested-loop oracle's rows at any driver count, under every
// adaptive-exchange mode (broadcast-small and partitioned).
func TestVectorJoinEquivalence(t *testing.T) {
	for _, seed := range equivSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for _, kind := range []planner.JoinKind{planner.JoinInner, planner.JoinLeft, planner.JoinCross} {
				for _, residual := range []bool{false, true} {
					plan, reg := equivJoin(rng, kind, residual)
					checkEquivalence(t, seed, plan, reg)
				}
			}
		})
	}
}

// runEquivSpill executes plan serially with a capped pool and a spill
// manager, returning the sorted row multiset and the pool (for spill
// assertions). Serial keeps spill triggering deterministic.
func runEquivSpill(t *testing.T, plan planner.Node, reg *connector.Registry, limit int64) ([]string, *resource.Pool) {
	t.Helper()
	pool, mgr := spillEnv(t, limit)
	ctx := &Context{Catalogs: reg, Drivers: 1, Memory: pool, Spill: mgr}
	op, err := Build(plan, ctx)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return sortedMultiset(drainRows(t, op)), pool
}

// TestVectorAggSpillEquivalence: the vectorized aggregation under memory
// pressure must spill (not fail), and the post-spill merge must reproduce
// boxedAggregate's rows exactly — across the aggregators' Reset after each
// spill and between merged pages — for a bigint, a double (NaN, −0.0
// and +0.0 among its values) and a varchar key, with min and max over a
// double that holds NaN, so the runs' key order and the typed aggregators'
// combine both meet the values they could get wrong.
func TestVectorAggSpillEquivalence(t *testing.T) {
	doubleKeys := []any{math.NaN(), math.Copysign(0, -1), 0.0}
	for d := 0; d < 600; d++ {
		doubleKeys = append(doubleKeys, float64(d)/2-100)
	}
	nanDoubles := []any{math.NaN(), 1.5, -2.5, math.Copysign(0, -1), 0.0, math.Inf(1), 7.0}
	for _, key := range []equivColSpec{
		{name: "k0", typ: types.Bigint, card: 600, nullDen: 0.05},
		{name: "k0", typ: types.Double, card: len(doubleKeys), nullDen: 0.05, values: doubleKeys},
		{name: "k0", typ: types.Varchar, card: 600, nullDen: 0.05},
	} {
		t.Run(key.typ.String()+" key", func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			specs := []equivColSpec{
				key,
				{name: "v0", typ: types.Bigint, card: 1000},
				{name: "v1", typ: types.Double, card: 500, nullDen: 0.1},
				{name: "v2", typ: types.Double, card: len(nanDoubles), nullDen: 0.1, values: nanDoubles},
			}
			scan, conn := equivScan(rng, "t", specs, 4000)
			reg := connector.NewRegistry()
			reg.Register("t", conn)
			aggs := equivAggs(rng, specs, 1, false)
			for _, name := range []string{"min", "max"} {
				aggs = append(aggs, planner.Aggregation{
					FuncName: name, Args: []int{3}, ArgTypes: []*types.Type{types.Double},
					OutputName: name + "_v2", InterType: types.Double, FinalType: types.Double,
				})
			}
			plan := &planner.Aggregate{Child: scan, GroupBy: []int{0}, Aggs: aggs, Step: planner.AggSingle}
			want := equivOracle(t, plan, reg)
			got, pool := runEquivSpill(t, plan, reg, 32<<10)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spilled vector aggregation diverged: %d vs %d rows", len(got), len(want))
			}
			if pool.Spilled() == 0 {
				t.Fatal("vector aggregation never spilled despite the tiny limit")
			}
		})
	}
}

// TestVectorJoinSpillEquivalence: under a cap far below its build side the
// join must spill, not fail, and its multi-pass join must return the
// nested-loop oracle's rows — for a keyed LEFT join, a LEFT join with a
// residual, a cross join and a LEFT join with only a residual (keyless
// joins probe a slice of rows at a time), each with a nested build column
// that the runs carry as it is. Without a spill manager the same join fails typed,
// naming the build side.
func TestVectorJoinSpillEquivalence(t *testing.T) {
	key := equivColSpec{name: "k0", typ: types.Bigint, card: 400, nullDen: 0.05}
	for _, tc := range []struct {
		name            string
		kind            planner.JoinKind
		keyed, residual bool
		probeRows       int
	}{
		{"left", planner.JoinLeft, true, false, 1500},
		{"left with residual", planner.JoinLeft, true, true, 1500},
		{"cross", planner.JoinCross, false, false, 40},
		{"left without keys", planner.JoinLeft, false, true, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			left := []equivColSpec{{name: "lv", typ: types.Bigint, card: 1000}}
			right := []equivColSpec{
				{name: "rv", typ: types.Bigint, card: 1000, nullDen: 0.1},
				{name: "rd", typ: types.Double, card: 1000},
				{name: "rrow", typ: equivRowType, card: 50, nullDen: 0.1},
			}
			var keys []int
			if tc.keyed {
				left, right, keys = append([]equivColSpec{key}, left...), append([]equivColSpec{key}, right...), []int{0}
			}
			scanL, connL := equivScan(rng, "l", left, tc.probeRows)
			scanR, connR := equivScan(rng, "r", right, 3000)
			reg := connector.NewRegistry()
			reg.Register("l", connL)
			reg.Register("r", connR)
			plan := &planner.Join{Kind: tc.kind, Left: scanL, Right: scanR, LeftKeys: keys, RightKeys: keys}
			if tc.residual {
				plan.Residual = expr.MustCall("lt",
					expr.NewVariable("lv", len(keys), types.Bigint),
					expr.NewVariable("rv", len(left)+len(keys), types.Bigint))
			}
			want := nestedLoopJoin(t, plan, reg)
			got, pool := runEquivSpill(t, plan, reg, 32<<10)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spilled join diverged: %d vs %d rows", len(got), len(want))
			}
			if pool.Spilled() == 0 {
				t.Fatal("join never spilled despite the tiny limit")
			}

			pool = resource.NewPool("query", 32<<10)
			op, err := Build(plan, &Context{Catalogs: reg, Drivers: 1, Memory: pool})
			if err != nil {
				t.Fatal(err)
			}
			_, err = Drain(op)
			var insufficient ErrInsufficientResources
			if !errors.As(err, &insufficient) || insufficient.Operator != "the build side of a join" {
				t.Fatalf("without spill: err = %v, want Insufficient Resources for the build side of a join", err)
			}
			if pool.Reserved() != 0 {
				t.Fatalf("failed join leaked %d bytes", pool.Reserved())
			}
		})
	}
}

// TestPartialAggBypassStreams pins the adaptive-partial-aggregation trip
// itself, not just its end-to-end invisibility: over a nearly-unique key
// with an eager trigger, a partial step must stop hashing and stream rows
// through, so its output row count exceeds the group count a fully-hashed
// partial collapses to. The disabled-trigger run doubles as the oracle for
// the group count, and both shapes must agree with the rowwise reference
// after a final step (covered by the equivalence configs above).
func TestPartialAggBypassStreams(t *testing.T) {
	const seed, rows = 21, 2000
	// card 3x rows: ~15% of rows repeat a key, so the reduction ratio stays
	// above the 80% trigger while pass-through visibly outgrows the groups.
	specs := []equivColSpec{{name: "k0", typ: types.Bigint, card: 3 * rows}}
	outRows := func(bypass int) int {
		rng := rand.New(rand.NewSource(seed))
		scan, conn := equivScan(rng, "t", specs, rows)
		reg := connector.NewRegistry()
		reg.Register("t", conn)
		partial := &planner.Aggregate{
			Child:   scan,
			GroupBy: []int{0},
			Aggs: []planner.Aggregation{{
				FuncName: "count", OutputName: "cnt", InterType: types.Bigint, FinalType: types.Bigint,
			}},
			Step: planner.AggPartial,
		}
		op, err := Build(partial, &Context{Catalogs: reg, Drivers: 1, partialAggBypassRows: bypass})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return len(drainRows(t, op))
	}
	groups := outRows(-1) // bypass disabled: one output row per group
	passed := outRows(1)  // eager trigger: pass-through after the first page
	if groups >= rows {
		t.Fatalf("want duplicate keys in the input: %d groups for %d rows", groups, rows)
	}
	if passed <= groups {
		t.Fatalf("partial bypass never engaged: %d output rows with eager trigger, %d groups without", passed, groups)
	}
}

// dictionaryKeyPages are the pages of TestVectorAggDictionaryKeyEquivalence,
// 64 rows each, over key columns k0 BIGINT and k1 VARCHAR and a value v:
//
//   - pages 0 and 1 share one k0 dictionary of 8 entries, entry 5 NULL,
//     whose ids use entries 0, 1, 2 and 5 (page 0) and 2 and 3 (page 1), and
//     NULL as id -1 too; k1 is ids over 3 entries: (8+1)·(3+1) fits a page;
//   - page 2 is flat, the same key values as the dictionaries hold;
//   - page 3's k0 has 70 entries, more than a page has rows;
//   - page 4's k0 has 20 entries and its k1 4: one key fits, two do not.
func dictionaryKeyPages(rng *rand.Rand) []*block.Page {
	const n = 64
	shared := &block.Int64Block{
		Values: []int64{10, 20, 30, 40, 50, 0, 70, 80},
		Nulls:  []bool{false, false, false, false, false, true, false, false},
	}
	ids := func(pick ...int32) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = pick[rng.Intn(len(pick))]
		}
		return out
	}
	strs := func(m int) *block.VarcharBlock {
		vals := make([]string, m)
		for i := range vals {
			vals[i] = string(rune('a' + i%26))
		}
		return &block.VarcharBlock{Values: vals}
	}
	ints := func(m int) *block.Int64Block {
		vals := make([]int64, m)
		for i := range vals {
			vals[i] = int64(10 * (i % 9))
		}
		return &block.Int64Block{Values: vals}
	}
	values := func() block.Block {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(100))
		}
		return &block.Int64Block{Values: vals}
	}
	flatK0 := make([]any, n)
	flatK1 := make([]any, n)
	for i := range flatK0 {
		if rng.Intn(6) > 0 {
			flatK0[i] = int64(10 * rng.Intn(9))
		}
		flatK1[i] = string(rune('a' + rng.Intn(4)))
	}
	return []*block.Page{
		block.NewPage(&block.DictionaryBlock{Dictionary: shared, Ids: ids(0, 1, 2, 5, -1)},
			&block.DictionaryBlock{Dictionary: strs(3), Ids: ids(0, 1, 2)}, values()),
		block.NewPage(&block.DictionaryBlock{Dictionary: shared, Ids: ids(2, 3, -1)},
			&block.DictionaryBlock{Dictionary: strs(3), Ids: ids(0, 2, -1)}, values()),
		block.NewPage(block.FromValues(types.Bigint, flatK0...), block.FromValues(types.Varchar, flatK1...), values()),
		block.NewPage(&block.DictionaryBlock{Dictionary: ints(70), Ids: ids(3, 9, 27, 61, 69, -1)},
			&block.DictionaryBlock{Dictionary: strs(3), Ids: ids(1, 2)}, values()),
		block.NewPage(&block.DictionaryBlock{Dictionary: ints(20), Ids: ids(0, 4, 8, 12, 19)},
			&block.DictionaryBlock{Dictionary: strs(4), Ids: ids(0, 3, -1)}, values()),
	}
}

// TestVectorAggDictionaryKeyEquivalence: grouping on dictionary-encoded keys
// — entries no row uses, NULL both as id -1 and inside the dictionary, one
// dictionary shared by consecutive pages, a dictionary page followed by a
// flat page of the same key, and one or two keys whose dictionaries fit a
// page or do not — must return boxedAggregate's rows at any driver count,
// and assign exactly the group ids the row path assigns: the same groups,
// numbered first-seen.
func TestVectorAggDictionaryKeyEquivalence(t *testing.T) {
	scan := &planner.TableScan{
		Catalog: "t", Schema: "s", Table: "t", Handle: equivHandle{"t"},
		Cols:           []planner.Column{{Name: "k0", Type: types.Bigint}, {Name: "k1", Type: types.Varchar}, {Name: "v", Type: types.Bigint}},
		ColumnOrdinals: []int{0, 1, 2},
	}
	argTypes := []*types.Type{types.Bigint}
	sum, err := expr.ResolveAggregate("sum", argTypes)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []planner.Aggregation{
		{FuncName: "count", OutputName: "cnt", InterType: types.Bigint, FinalType: types.Bigint},
		{FuncName: "sum", Args: []int{2}, ArgTypes: argTypes, OutputName: "s",
			InterType: sum.IntermediateType(argTypes), FinalType: sum.FinalType(argTypes)},
	}
	for _, seed := range equivSeeds(t) {
		pages := dictionaryKeyPages(rand.New(rand.NewSource(seed)))
		reg := connector.NewRegistry()
		reg.Register("t", &equivConnector{splits: []connector.Split{&equivSplit{pages: pages[:2]}, &equivSplit{pages: pages[2:]}}})
		for _, groupBy := range [][]int{{0}, {0, 1}, {1, 0}} {
			keyTypes := make([]*types.Type, len(groupBy))
			for i, ch := range groupBy {
				keyTypes[i] = scan.Cols[ch].Type
			}
			encoded, flat := vector.NewPartial(keyTypes, nil), vector.NewPartial(keyTypes, nil)
			for pi, p := range pages {
				cols := make([]block.Block, len(groupBy))
				for i, ch := range groupBy {
					cols[i] = p.Blocks[ch]
				}
				got, err := encoded.Assign(cols, p.Count())
				if err != nil {
					t.Fatal(err)
				}
				got = slices.Clone(got)
				want, err := flat.Assign(block.MaterializePage(block.NewPage(cols...)).Blocks, p.Count())
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) || encoded.Len() != flat.Len() {
					t.Fatalf("seed %d, keys %v, page %d: group ids %v over %d groups, the row path %v over %d",
						seed, groupBy, pi, got, encoded.Len(), want, flat.Len())
				}
			}

			agg := &planner.Aggregate{Child: scan, GroupBy: groupBy, Aggs: aggs, Step: planner.AggSingle}
			partial := *agg
			partial.Step = planner.AggPartial
			checkEquivalence(t, seed, agg, reg)
			checkEquivalence(t, seed, planner.FinalOver(&partial, agg), reg)
		}
	}
}

// sortDomains are the values TestSortEquivalence's columns draw from: the
// doubles ORDER BY can get wrong (NaN, both zeros, both infinities), a
// string that is a prefix of another and strings holding 0x00, and the
// integer extremes.
var sortDomains = map[types.Kind][]any{
	types.KindBigint:  {int64(3), int64(-7), int64(0), int64(math.MaxInt64), int64(math.MinInt64), int64(42)},
	types.KindDouble:  {2.0, math.NaN(), 1.0, math.Copysign(0, -1), 0.0, math.Inf(1), math.Inf(-1), -1.5, 0.5},
	types.KindVarchar: {"b", "a", "ab", "a\x00", "a\x00b", "", "\x00", "B"},
	types.KindBoolean: {true, false},
	types.KindDate:    {int64(18000), int64(-1), int64(18001), int64(0)},
}

// sortOrder is the order ORDER BY gives two values of one column, written
// from the decision table rather than from the key encoder: NULL after
// every value; integers and dates numerically; doubles numerically, with a
// NaN below every number and equal to a NaN, and −0.0 equal to +0.0;
// strings bytewise; false before true.
func sortOrder(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return 1
	case b == nil:
		return -1
	}
	less := func(lt, gt bool) int {
		switch {
		case lt:
			return -1
		case gt:
			return 1
		}
		return 0
	}
	switch x := a.(type) {
	case int64:
		y := b.(int64)
		return less(x < y, x > y)
	case float64:
		y := b.(float64)
		if xn, yn := x != x, y != y; xn || yn {
			return less(xn && !yn, yn && !xn)
		}
		return less(x < y, x > y)
	case string:
		y := b.(string)
		return less(x < y, x > y)
	case bool:
		y := b.(bool)
		return less(!x && y, x && !y)
	}
	panic(fmt.Sprintf("sortOrder: %T", a))
}

// sortOracle stably sorts rows by keys; DESC reverses a column's order,
// NULL's place included.
func sortOracle(rows [][]any, keys []planner.SortKey) [][]any {
	out := slices.Clone(rows)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			c := sortOrder(out[i][k.Channel], out[j][k.Channel])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// sortKeyClasses renders each row's sort-key values, with −0.0 as +0.0:
// rows that tie under ORDER BY render alike.
func sortKeyClasses(rows [][]any, keys []planner.SortKey) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		for _, k := range keys {
			v := row[k.Channel]
			if x, ok := v.(float64); ok && x == 0 {
				v = 0.0
			}
			out[i] += fmt.Sprint(v) + "|"
		}
	}
	return out
}

// TestSortEquivalence: ORDER BY over random pages — bigint, double, varchar,
// boolean and date columns in every encoding, with NULLs and duplicate keys,
// sorted by one to three of them ASC or DESC — must return sortOracle's rows
// in memory and forced to spill, in exactly the oracle's order (so ties keep
// input order), and on 8 drivers, whose per-driver sorts the merge combines,
// in the oracle's key order (which rows of a tie came first depends on which
// driver drew which split).
func TestSortEquivalence(t *testing.T) {
	kinds := []*types.Type{types.Bigint, types.Double, types.Varchar, types.Boolean, types.Date}
	for _, seed := range equivSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 3; trial++ {
				var specs []equivColSpec
				for i, typ := range kinds {
					dom := sortDomains[typ.Kind]
					specs = append(specs, equivColSpec{
						name: fmt.Sprintf("c%d", i), typ: typ, values: dom,
						card: 1 + rng.Intn(len(dom)), nullDen: []float64{0, 0.1, 0.3}[rng.Intn(3)],
					})
				}
				specs = append(specs, equivColSpec{name: "seq", typ: types.Bigint, card: 1 << 30})
				scan, conn := equivScan(rng, "t", specs, 1500)
				reg := connector.NewRegistry()
				reg.Register("t", conn)
				var keys []planner.SortKey
				for _, ch := range rng.Perm(len(kinds))[:1+rng.Intn(3)] {
					keys = append(keys, planner.SortKey{Channel: ch, Desc: rng.Intn(2) == 0})
				}
				plan := &planner.Sort{Child: scan, Keys: keys}
				want := sortOracle(serialRows(t, scan, reg), keys)

				run := func(ctx *Context) [][]any {
					op, err := Build(plan, ctx)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					return drainRows(t, op)
				}
				exact := func(path string, got [][]any) {
					t.Helper()
					for i := range max(len(got), len(want)) {
						if i >= len(got) || i >= len(want) || fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
							t.Fatalf("trial %d, keys %+v, %s: %d rows, the oracle %d; first difference at row %d",
								trial, keys, path, len(got), len(want), i)
						}
					}
				}
				exact("in memory", run(&Context{Catalogs: reg, Drivers: 1}))
				pool, mgr := spillEnv(t, 24<<10)
				exact("spilled", run(&Context{Catalogs: reg, Drivers: 1, Memory: pool, Spill: mgr}))
				if pool.Spilled() == 0 {
					t.Fatalf("trial %d: the sort never spilled despite the tiny limit", trial)
				}
				got := run(&Context{Catalogs: reg, Drivers: 8})
				if !reflect.DeepEqual(sortKeyClasses(got, keys), sortKeyClasses(want, keys)) {
					t.Fatalf("trial %d, keys %+v, 8 drivers: key order differs from the oracle's", trial, keys)
				}
				if !reflect.DeepEqual(sortedMultiset(got), sortedMultiset(want)) {
					t.Fatalf("trial %d, keys %+v, 8 drivers: rows differ from the oracle's", trial, keys)
				}
			}
		})
	}
}
