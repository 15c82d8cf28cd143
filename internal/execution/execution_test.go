package execution

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// pagesOperator feeds fixed pages.
type pagesOperator struct {
	pages []*block.Page
	pos   int
}

func (o *pagesOperator) Next() (*block.Page, error) {
	if o.pos >= len(o.pages) {
		return nil, io.EOF
	}
	p := o.pages[o.pos]
	o.pos++
	return p, nil
}

func (o *pagesOperator) Close() error { return nil }

func intPage(vals ...int64) *block.Page {
	return block.NewPage(&block.Int64Block{Values: vals})
}

func TestFilterOperator(t *testing.T) {
	child := &pagesOperator{pages: []*block.Page{intPage(1, 2, 3), intPage(4, 5)}}
	pred := expr.MustCall("gte", expr.NewVariable("v", 0, types.Bigint), expr.NewConstant(int64(3), types.Bigint))
	op := &filterOperator{child: child, predicate: pred}
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, p := range pages {
		for i := 0; i < p.Count(); i++ {
			got = append(got, p.Row(i)[0].(int64))
		}
	}
	if !reflect.DeepEqual(got, []int64{3, 4, 5}) {
		t.Fatalf("got %v", got)
	}
}

func TestLimitOperator(t *testing.T) {
	child := &pagesOperator{pages: []*block.Page{intPage(1, 2, 3), intPage(4, 5)}}
	op := &limitOperator{child: child, remaining: 4}
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pages {
		total += p.Count()
	}
	if total != 4 {
		t.Fatalf("total = %d", total)
	}
}

func TestSortOperatorStableAndNullsLast(t *testing.T) {
	p1 := block.NewPage(
		block.FromValues(types.Bigint, int64(3), nil, int64(1)),
		block.FromValues(types.Varchar, "a", "b", "c"),
	)
	p2 := block.NewPage(
		block.FromValues(types.Bigint, int64(2)),
		block.FromValues(types.Varchar, "d"),
	)
	op := &sortOperator{
		child: &pagesOperator{pages: []*block.Page{p1, p2}},
		keys:  []planner.SortKey{{Channel: 0}},
		mem:   &opMem{op: "test"},
	}
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 {
		t.Fatalf("pages = %d", len(pages))
	}
	var keys []any
	for i := 0; i < pages[0].Count(); i++ {
		keys = append(keys, pages[0].Row(i)[0])
	}
	want := []any{int64(1), int64(2), int64(3), nil}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v", keys)
	}
	// Sorted view materializes for the wire.
	if _, err := block.EncodePage(pages[0]); err != nil {
		t.Fatalf("encode sorted page: %v", err)
	}
}

func TestAggregateOperatorPartialFinal(t *testing.T) {
	agg := &planner.Aggregate{
		Child: &planner.Values{Cols: []planner.Column{
			{Name: "k", Type: types.Bigint}, {Name: "v", Type: types.Bigint},
		}},
		GroupBy: []int{0},
		Aggs: []planner.Aggregation{{
			FuncName: "avg", Args: []int{1}, ArgTypes: []*types.Type{types.Bigint},
			OutputName: "a",
			InterType:  types.NewRow(types.Field{Name: "sum", Type: types.Double}, types.Field{Name: "count", Type: types.Bigint}),
			FinalType:  types.Double,
		}},
		Step: planner.AggPartial,
	}
	input := block.NewPage(
		&block.Int64Block{Values: []int64{1, 1, 2}},
		&block.Int64Block{Values: []int64{10, 20, 30}},
	)
	partialOp, err := newVectorAggOperator(&Context{}, agg, &pagesOperator{pages: []*block.Page{input}})
	if err != nil {
		t.Fatal(err)
	}
	partials, err := Drain(partialOp)
	if err != nil {
		t.Fatal(err)
	}

	finalAgg := &planner.Aggregate{
		Child:   &planner.Values{Cols: agg.Outputs()},
		GroupBy: []int{0},
		Aggs: []planner.Aggregation{{
			FuncName: "avg", Args: []int{1}, ArgTypes: []*types.Type{types.Bigint},
			OutputName: "a", InterType: agg.Aggs[0].InterType, FinalType: types.Double,
		}},
		Step: planner.AggFinal,
	}
	finalOp, err := newVectorAggOperator(&Context{}, finalAgg, &pagesOperator{pages: partials})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(finalOp)
	if err != nil {
		t.Fatal(err)
	}
	got := map[any]any{}
	for _, p := range out {
		for i := 0; i < p.Count(); i++ {
			r := p.Row(i)
			got[r[0]] = r[1]
		}
	}
	if got[int64(1)] != 15.0 || got[int64(2)] != 30.0 {
		t.Fatalf("avg = %v", got)
	}
}

// TestJoinOperatorNullKeysNeverMatch: a NULL key matches nothing, on
// either side — including a key typed as a bare NULL literal, which has no
// vector kind and holds nothing but NULLs.
func TestJoinOperatorNullKeysNeverMatch(t *testing.T) {
	for _, tc := range []struct {
		typ         *types.Type
		left, right []any
		want        int
	}{
		{types.Bigint, []any{int64(1), nil, int64(2)}, []any{nil, int64(1)}, 1}, // only 1=1
		{types.Unknown, []any{nil, nil}, []any{nil, nil, nil}, 0},
	} {
		join := &planner.Join{
			Kind:     planner.JoinInner,
			Left:     &planner.Values{Cols: []planner.Column{{Name: "l", Type: tc.typ}}},
			Right:    &planner.Values{Cols: []planner.Column{{Name: "r", Type: tc.typ}}},
			LeftKeys: []int{0}, RightKeys: []int{0},
		}
		op := newVectorJoinOperator(join,
			&pagesOperator{pages: []*block.Page{block.NewPage(block.FromValues(tc.typ, tc.left...))}},
			&pagesOperator{pages: []*block.Page{block.NewPage(block.FromValues(tc.typ, tc.right...))}},
			&opMem{op: "test"})
		if got := len(drainRows(t, op)); got != tc.want {
			t.Errorf("%v keys: %d rows matched, want %d", tc.typ, got, tc.want)
		}
	}
}

func TestBuildRejectsRemoteSourceWithoutContext(t *testing.T) {
	_, err := Build(&planner.RemoteSource{FragmentID: 1}, &Context{Catalogs: connector.NewRegistry()})
	if err == nil {
		t.Error("RemoteSource without resolver accepted")
	}
}

func TestDrainPropagatesErrors(t *testing.T) {
	op := &errOperator{}
	if _, err := Drain(op); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("err = %v", err)
	}
}

type errOperator struct{}

func (errOperator) Next() (*block.Page, error) { return nil, errors.New("boom") }
func (errOperator) Close() error               { return nil }
