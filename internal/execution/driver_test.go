package execution

import (
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// ---------------------------------------------------------------------------
// Stub connector: deterministic pages per split, optional per-page delay.

type testSplit struct{ vals []int64 }

func (s *testSplit) Description() string { return "test split" }

type testHandle struct{}

func (testHandle) Description() string { return "test table" }

type testConnector struct {
	splits []connector.Split
	delay  time.Duration
	opened atomic.Int64 // page sources created (== splits actually read)
}

func (c *testConnector) Name() string                                   { return "test" }
func (c *testConnector) Metadata() connector.Metadata                   { return nil }
func (c *testConnector) SplitManager() connector.SplitManager           { return c }
func (c *testConnector) RecordSetProvider() connector.RecordSetProvider { return c }

func (c *testConnector) Splits(connector.TableHandle) ([]connector.Split, error) {
	return c.splits, nil
}

func (c *testConnector) CreatePageSource(_ connector.TableHandle, split connector.Split, _ []int) (connector.PageSource, error) {
	c.opened.Add(1)
	return &testPageSource{vals: split.(*testSplit).vals, delay: c.delay}, nil
}

// testPageSource emits one single-row page per value.
type testPageSource struct {
	vals  []int64
	pos   int
	delay time.Duration
}

func (s *testPageSource) Next() (*block.Page, error) {
	if s.pos >= len(s.vals) {
		return nil, io.EOF
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	v := s.vals[s.pos]
	s.pos++
	return intPage(v), nil
}

func (s *testPageSource) Close() error { return nil }

// testScan builds a single-column BIGINT table scan over the given splits.
func testScan(t *testing.T, splitVals ...[]int64) (*planner.TableScan, *testConnector, *connector.Registry) {
	t.Helper()
	c := &testConnector{}
	for _, v := range splitVals {
		c.splits = append(c.splits, &testSplit{vals: v})
	}
	reg := connector.NewRegistry()
	reg.Register("t", c)
	scan := &planner.TableScan{
		Catalog: "t", Schema: "s", Table: "x", Handle: testHandle{},
		Cols:           []planner.Column{{Name: "v", Type: types.Bigint}},
		ColumnOrdinals: []int{0},
	}
	return scan, c, reg
}

// ---------------------------------------------------------------------------
// Small test operators.

// failingOperator returns err on every Next.
type failingOperator struct{ err error }

func (o *failingOperator) Next() (*block.Page, error) { return nil, o.err }
func (o *failingOperator) Close() error               { return nil }

// countingOperator yields n single-value pages, counting how many were pulled
// and whether Close ran.
type countingOperator struct {
	n        int
	produced atomic.Int64
	closed   atomic.Bool
}

func (o *countingOperator) Next() (*block.Page, error) {
	if int(o.produced.Load()) >= o.n {
		return nil, io.EOF
	}
	v := o.produced.Add(1)
	return intPage(v), nil
}

func (o *countingOperator) Close() error { o.closed.Store(true); return nil }

func pagesOf(vals ...int64) *pagesOperator {
	pages := make([]*block.Page, len(vals))
	for i, v := range vals {
		pages[i] = intPage(v)
	}
	return &pagesOperator{pages: pages}
}

func col0Int64s(pages []*block.Page) []int64 {
	var out []int64
	for _, p := range pages {
		b := p.Blocks[0]
		for i := 0; i < p.Count(); i++ {
			out = append(out, b.Value(i).(int64))
		}
	}
	return out
}

func sortedInt64s(vals []int64) []int64 {
	out := append([]int64(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// drainAll drains every endpoint concurrently (each endpoint is owned by one
// driver goroutine in real plans; draining serially could deadlock on the
// bounded channels, which is exactly not how exchanges are used).
func drainAll(t *testing.T, endpoints []Operator) ([][]int64, []error) {
	t.Helper()
	vals := make([][]int64, len(endpoints))
	errs := make([]error, len(endpoints))
	var wg sync.WaitGroup
	for i, ep := range endpoints {
		wg.Add(1)
		go func(i int, ep Operator) {
			defer wg.Done()
			pages, err := Drain(ep)
			vals[i] = col0Int64s(pages)
			errs[i] = err
		}(i, ep)
	}
	wg.Wait()
	return vals, errs
}

// expectGoroutines polls until the goroutine count returns to the baseline —
// producers are joined on the last endpoint Close, so any excess is a leak.
func expectGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Exchange semantics.

// bare is the context of a test that wires exchanges by hand: Build, which
// would have supplied the cancellation context, is not on its path.
func bare() *Context { return &Context{Ctx: context.Background()} }

func TestLocalExchangeGather(t *testing.T) {
	sources := []Operator{pagesOf(1, 2, 3), pagesOf(4, 5), pagesOf(6)}
	eps := newLocalExchange(bare(), sources, exGather, nil, 1)
	vals, errs := drainAll(t, eps)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	want := []int64{1, 2, 3, 4, 5, 6}
	if got := sortedInt64s(vals[0]); len(got) != len(want) {
		t.Fatalf("gather lost rows: got %v want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gather rows mismatch: got %v want %v", got, want)
			}
		}
	}
}

func TestLocalExchangeRoundRobin(t *testing.T) {
	sources := []Operator{pagesOf(1, 2, 3, 4, 5, 6, 7, 8)}
	eps := newLocalExchange(bare(), sources, exRoundRobin, nil, 4)
	vals, errs := drainAll(t, eps)
	var all []int64
	nonEmpty := 0
	for i := range eps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(vals[i]) > 0 {
			nonEmpty++
		}
		all = append(all, vals[i]...)
	}
	got := sortedInt64s(all)
	if len(got) != 8 {
		t.Fatalf("round robin lost rows: %v", got)
	}
	for i := range got {
		if got[i] != int64(i+1) {
			t.Fatalf("round robin rows mismatch: %v", got)
		}
	}
	// 8 pages over 4 outputs must actually spread the work.
	if nonEmpty < 2 {
		t.Fatalf("round robin did not rebalance: %d non-empty outputs", nonEmpty)
	}
}

func TestLocalExchangePassthroughOrder(t *testing.T) {
	sources := []Operator{pagesOf(1, 2, 3), pagesOf(10, 20, 30)}
	eps := newLocalExchange(bare(), sources, exPassthrough, nil, 2)
	vals, errs := drainAll(t, eps)
	want := [][]int64{{1, 2, 3}, {10, 20, 30}}
	for i := range eps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(vals[i]) != len(want[i]) {
			t.Fatalf("stream %d: got %v want %v", i, vals[i], want[i])
		}
		for j := range want[i] {
			if vals[i][j] != want[i][j] {
				t.Fatalf("stream %d order broken: got %v want %v", i, vals[i], want[i])
			}
		}
	}
}

func TestLocalExchangePartitionDisjoint(t *testing.T) {
	// Two producers emit overlapping keys; every occurrence of one key must
	// land on exactly one output, no matter which producer carried it.
	sources := []Operator{
		&pagesOperator{pages: []*block.Page{
			intPage(1, 2, 3, 4, 5, 6, 7, 8), intPage(1, 2, 3),
		}},
		&pagesOperator{pages: []*block.Page{
			intPage(5, 6, 7, 8), intPage(42),
		}},
	}
	eps := newLocalExchange(bare(), sources, exPartition, []int{0}, 3)
	vals, errs := drainAll(t, eps)
	home := map[int64]int{}
	total := 0
	for i := range eps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		total += len(vals[i])
		for _, v := range vals[i] {
			if prev, ok := home[v]; ok && prev != i {
				t.Fatalf("key %d split across outputs %d and %d", v, prev, i)
			}
			home[v] = i
		}
	}
	if total != 16 {
		t.Fatalf("partition lost rows: %d of 16", total)
	}
}

func TestLocalExchangeErrorPropagation(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("split went away")
	big := &countingOperator{n: 100000}
	sources := []Operator{big, &failingOperator{err: boom}}
	eps := newLocalExchange(bare(), sources, exRoundRobin, nil, 2)
	_, errs := drainAll(t, eps)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("endpoint %d: got %v, want the producer error", i, err)
		}
	}
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The sibling must have been stopped well before draining its 100k pages,
	// and its Close must have run.
	if got := big.produced.Load(); got == 100000 {
		t.Fatal("sibling producer ran to completion despite the error")
	}
	if !big.closed.Load() {
		t.Fatal("sibling source not closed after error")
	}
	expectGoroutines(t, base)
}

func TestLocalExchangeEarlyCloseUnstarted(t *testing.T) {
	// Closing every endpoint before any Next must close the sources without
	// ever starting producers.
	base := runtime.NumGoroutine()
	srcs := []*countingOperator{{n: 10}, {n: 10}}
	eps := newLocalExchange(bare(), []Operator{srcs[0], srcs[1]}, exRoundRobin, nil, 2)
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range srcs {
		if !s.closed.Load() {
			t.Fatalf("source %d not closed", i)
		}
		if s.produced.Load() != 0 {
			t.Fatalf("source %d was pulled without a consumer", i)
		}
	}
	expectGoroutines(t, base)
}

func TestLocalExchangeEarlyCloseRunning(t *testing.T) {
	// LIMIT-style teardown: pull a little, then close all endpoints. The
	// producers must stop and be joined; the source must be closed.
	base := runtime.NumGoroutine()
	src := &countingOperator{n: 1 << 30}
	eps := newLocalExchange(bare(), []Operator{src}, exRoundRobin, nil, 2)
	if _, err := eps[0].Next(); err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !src.closed.Load() {
		t.Fatal("source not closed on early teardown")
	}
	expectGoroutines(t, base)
}

func TestLocalExchangeEndpointEarlyClose(t *testing.T) {
	// One endpoint closing early (its driver's LIMIT satisfied) must not
	// wedge producers routing rows to it — pages for the dead endpoint are
	// dropped and the surviving endpoint still drains to EOF.
	base := runtime.NumGoroutine()
	src := pagesOf(func() []int64 {
		vals := make([]int64, 200)
		for i := range vals {
			vals[i] = int64(i)
		}
		return vals
	}()...)
	eps := newLocalExchange(bare(), []Operator{src}, exRoundRobin, nil, 2)
	if err := eps[1].Close(); err != nil {
		t.Fatal(err)
	}
	pages, err := Drain(eps[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := len(col0Int64s(pages)); n == 0 || n > 200 {
		t.Fatalf("surviving endpoint got %d rows", n)
	}
	expectGoroutines(t, base)
}

func TestLocalExchangeContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(context.Background())
	src := &countingOperator{n: 1 << 30}
	eps := newLocalExchange(&Context{Ctx: cctx}, []Operator{src}, exGather, nil, 1)
	if _, err := eps[0].Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	var err error
	for {
		if _, err = eps[0].Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, io.EOF) {
		t.Fatalf("got %v, want context.Canceled (or EOF after stop)", err)
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	if got := src.produced.Load(); got == 1<<30 {
		t.Fatal("producer ran to completion despite cancellation")
	}
	expectGoroutines(t, base)
}

// ---------------------------------------------------------------------------
// Parallel scan over the shared split queue.

func TestSplitQueueTakesEachSplitOnce(t *testing.T) {
	q := &splitQueue{splits: []connector.Split{&testSplit{}, &testSplit{}, &testSplit{}}}
	seen := map[int]bool{}
	for {
		_, idx, ok := q.take()
		if !ok {
			break
		}
		if seen[idx] {
			t.Fatalf("split %d taken twice", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("took %d of 3 splits", len(seen))
	}
	if _, _, ok := q.take(); ok {
		t.Fatal("drained queue handed out another split")
	}
}

func TestBuildDriversScanEquivalence(t *testing.T) {
	scan, conn, reg := testScan(t,
		[]int64{1, 2, 3}, []int64{4, 5}, []int64{6}, []int64{7, 8, 9, 10})

	serialCtx := &Context{Catalogs: reg, Drivers: 1}
	op, err := Build(scan, serialCtx)
	if err != nil {
		t.Fatal(err)
	}
	serialPages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}

	conn.opened.Store(0)
	base := runtime.NumGoroutine()
	parCtx := &Context{Catalogs: reg, Drivers: 4}
	op, err = Build(scan, parCtx)
	if err != nil {
		t.Fatal(err)
	}
	parPages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, base)

	serial := sortedInt64s(col0Int64s(serialPages))
	par := sortedInt64s(col0Int64s(parPages))
	if len(serial) != len(par) {
		t.Fatalf("row counts differ: serial %d, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("rows differ after sorting: serial %v, parallel %v", serial, par)
		}
	}
	if got := conn.opened.Load(); got != 4 {
		t.Fatalf("parallel scan opened %d page sources, want 4 (one per split)", got)
	}
}

func TestBuildDriversFilterEquivalence(t *testing.T) {
	scan, _, reg := testScan(t, []int64{1, 2, 3, 4}, []int64{5, 6, 7, 8})
	plan := &planner.Filter{
		Child:     scan,
		Predicate: expr.MustCall("gte", expr.NewVariable("v", 0, types.Bigint), expr.NewConstant(int64(4), types.Bigint)),
	}
	op, err := Build(plan, &Context{Catalogs: reg, Drivers: 3})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedInt64s(col0Int64s(pages))
	want := []int64{4, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestBuildDriversLimitStopsEarly(t *testing.T) {
	base := runtime.NumGoroutine()
	scan, _, reg := testScan(t,
		[]int64{1, 2, 3, 4, 5}, []int64{6, 7, 8, 9, 10},
		[]int64{11, 12, 13, 14, 15}, []int64{16, 17, 18, 19, 20})
	plan := &planner.Limit{Child: scan, N: 7}
	op, err := Build(plan, &Context{Catalogs: reg, Drivers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(col0Int64s(pages)); n != 7 {
		t.Fatalf("LIMIT 7 returned %d rows", n)
	}
	expectGoroutines(t, base)
}

func TestParallelScanCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(context.Background())
	scan, conn, reg := testScan(t,
		[]int64{1, 2, 3, 4, 5}, []int64{6, 7, 8, 9, 10},
		[]int64{11, 12, 13, 14, 15}, []int64{16, 17, 18, 19, 20})
	conn.delay = 2 * time.Millisecond
	op, err := Build(scan, &Context{Catalogs: reg, Ctx: cctx, Drivers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		_, err = op.Next()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, base)
}

func TestParallelScanCancelledBeforeStart(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	scan, _, reg := testScan(t, []int64{1, 2, 3})
	op, err := Build(scan, &Context{Catalogs: reg, Ctx: cctx, Drivers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDriversWithoutScanStaysSerial(t *testing.T) {
	// A plan with no TableScan (pure VALUES) has nothing to fan out: even
	// with Drivers > 1 it builds as one stream with no exchange in it.
	vals := &planner.Values{
		Cols: []planner.Column{{Name: "v", Type: types.Bigint}},
		Rows: [][]any{{int64(1)}, {int64(2)}},
	}
	op, err := Build(vals, &Context{Drivers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*valuesOperator); !ok {
		t.Fatalf("VALUES at 8 drivers built %T, want the bare valuesOperator", op)
	}
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(col0Int64s(pages)); n != 2 {
		t.Fatalf("got %d rows, want 2", n)
	}
}

// reachesExchange reports whether a local exchange is reachable through the
// fields of an operator tree.
func reachesExchange(v reflect.Value, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Interface:
		return !v.IsNil() && reachesExchange(v.Elem(), seen)
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		if t := v.Type(); t == reflect.TypeOf(&exchangeOut{}) || t == reflect.TypeOf(&localExchange{}) {
			return true
		}
		return reachesExchange(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if reachesExchange(v.Field(i), seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if reachesExchange(v.Index(i), seen) {
				return true
			}
		}
	}
	return false
}

// TestBuildOneDriverHasNoExchange: with Drivers 0 or 1 the one builder yields
// the plain operator tree — no exchange anywhere in it, so draining it starts
// no goroutine — and a UNION ALL keeps its sources' order.
func TestBuildOneDriverHasNoExchange(t *testing.T) {
	scan, _, reg := testScan(t, []int64{1, 2, 3}, []int64{4, 5}, []int64{6})
	count := planner.Aggregation{FuncName: "count", OutputName: "n", InterType: types.Bigint, FinalType: types.Bigint}
	plans := map[string]planner.Node{
		"scan":      scan,
		"union":     &planner.Union{Sources: []planner.Node{scan, scan}},
		"join":      &planner.Join{Kind: planner.JoinInner, Left: scan, Right: scan, LeftKeys: []int{0}, RightKeys: []int{0}},
		"aggregate": &planner.Aggregate{Child: scan, GroupBy: []int{0}, Aggs: []planner.Aggregation{count}},
		"global":    &planner.Aggregate{Child: scan, Aggs: []planner.Aggregation{count}},
		"sort":      &planner.Sort{Child: scan, Keys: []planner.SortKey{{Channel: 0, Desc: true}}},
	}
	for name, plan := range plans {
		for _, drivers := range []int{0, 1} {
			base := runtime.NumGoroutine()
			op, err := Build(plan, &Context{Catalogs: reg, Drivers: drivers, Stats: obs.NewTaskStats()})
			if err != nil {
				t.Fatalf("%s/drivers=%d: %v", name, drivers, err)
			}
			if reachesExchange(reflect.ValueOf(op), map[uintptr]bool{}) {
				t.Errorf("%s/drivers=%d: a local exchange in a one-driver tree", name, drivers)
			}
			pages, err := Drain(op)
			if err != nil {
				t.Fatalf("%s/drivers=%d: %v", name, drivers, err)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%s/drivers=%d: %d goroutines after Drain, %d before Build", name, drivers, n, base)
			}
			if name == "union" {
				want := []int64{1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6}
				if got := col0Int64s(pages); !reflect.DeepEqual(got, want) {
					t.Errorf("union/drivers=%d: rows %v, want the sources in order %v", drivers, got, want)
				}
			}
		}
		// The walk is not vacuous: the same plan at four drivers does hold one.
		op, err := Build(plan, &Context{Catalogs: reg, Drivers: 4})
		if err != nil {
			t.Fatalf("%s/drivers=4: %v", name, err)
		}
		if !reachesExchange(reflect.ValueOf(op), map[uintptr]bool{}) {
			t.Errorf("%s/drivers=4: no local exchange found", name)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Adaptive exchange.

func TestAdaptiveExchangeGathersSmall(t *testing.T) {
	// Under the row limit every page must land on output 0 (no partitioning),
	// leaving the sibling endpoints empty.
	sources := []Operator{pagesOf(1, 2, 3), pagesOf(4, 5)}
	eps, st := newAdaptiveExchange(bare(), sources, []int{0}, 3, exGather)
	vals, errs := drainAll(t, eps)
	for i := range eps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if got := sortedInt64s(vals[0]); len(got) != 5 {
		t.Fatalf("output 0 got %v, want all 5 rows", got)
	}
	if len(vals[1])+len(vals[2]) != 0 {
		t.Fatalf("small input leaked past output 0: %v / %v", vals[1], vals[2])
	}
	if !st.isDecided() || st.mode != exGather {
		t.Fatalf("decision = %v (decided %v), want exGather", st.mode, st.isDecided())
	}
}

func TestAdaptiveExchangePartitionsLarge(t *testing.T) {
	// Over the limit the exchange must fall back to hash partitioning: every
	// occurrence of a key on one output, with real spread across outputs.
	ctx := bare()
	ctx.adaptiveExchangeRows = 4
	sources := []Operator{
		&pagesOperator{pages: []*block.Page{intPage(1, 2, 3, 4, 5, 6, 7, 8), intPage(1, 2, 3)}},
		&pagesOperator{pages: []*block.Page{intPage(5, 6, 7, 8)}},
	}
	eps, st := newAdaptiveExchange(ctx, sources, []int{0}, 3, exGather)
	vals, errs := drainAll(t, eps)
	home := map[int64]int{}
	total, nonEmpty := 0, 0
	for i := range eps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		total += len(vals[i])
		if len(vals[i]) > 0 {
			nonEmpty++
		}
		for _, v := range vals[i] {
			if prev, ok := home[v]; ok && prev != i {
				t.Fatalf("key %d split across outputs %d and %d", v, prev, i)
			}
			home[v] = i
		}
	}
	if total != 15 {
		t.Fatalf("adaptive partition lost rows: %d of 15", total)
	}
	if nonEmpty < 2 {
		t.Fatalf("adaptive partition did not spread: %d non-empty outputs", nonEmpty)
	}
	if st.mode != exPartition {
		t.Fatalf("decision = %v, want exPartition", st.mode)
	}
}

func TestAdaptiveExchangeBroadcastFollower(t *testing.T) {
	// A small build side broadcasts to every output, and the follower (probe)
	// side round-robins — together each output can join any probe row.
	ctx := bare()
	build, st := newAdaptiveExchange(ctx, []Operator{pagesOf(10, 20)}, []int{0}, 2, exBroadcast)
	probe := newFollowerExchange(ctx, []Operator{pagesOf(1, 2, 3, 4)}, []int{0}, 2, st)

	var wg sync.WaitGroup
	buildVals := make([][]int64, 2)
	probeVals := make([][]int64, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bp, err := Drain(build[i])
			if err != nil {
				t.Error(err)
			}
			buildVals[i] = col0Int64s(bp)
			pp, err := Drain(probe[i])
			if err != nil {
				t.Error(err)
			}
			probeVals[i] = col0Int64s(pp)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if got := sortedInt64s(buildVals[i]); len(got) != 2 || got[0] != 10 || got[1] != 20 {
			t.Fatalf("output %d build side = %v, want the full broadcast {10,20}", i, got)
		}
	}
	if n := len(probeVals[0]) + len(probeVals[1]); n != 4 {
		t.Fatalf("follower lost probe rows: %d of 4", n)
	}
	if st.mode != exBroadcast {
		t.Fatalf("decision = %v, want exBroadcast", st.mode)
	}
}

func TestAdaptiveExchangeFollowerPartitionsWithSameHash(t *testing.T) {
	// A large build side partitions, and the follower must route matching
	// keys to the same output index (the join co-location invariant).
	ctx := bare()
	ctx.adaptiveExchangeRows = 2
	build, st := newAdaptiveExchange(ctx, []Operator{pagesOf(1, 2, 3, 4, 5, 6)}, []int{0}, 3, exBroadcast)
	probe := newFollowerExchange(ctx, []Operator{pagesOf(1, 2, 3, 4, 5, 6)}, []int{0}, 3, st)

	var wg sync.WaitGroup
	buildVals := make([][]int64, 3)
	probeVals := make([][]int64, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bp, err := Drain(build[i])
			if err != nil {
				t.Error(err)
			}
			buildVals[i] = col0Int64s(bp)
			pp, err := Drain(probe[i])
			if err != nil {
				t.Error(err)
			}
			probeVals[i] = col0Int64s(pp)
		}(i)
	}
	wg.Wait()
	if st.mode != exPartition {
		t.Fatalf("decision = %v, want exPartition", st.mode)
	}
	buildHome := map[int64]int{}
	for i, vs := range buildVals {
		for _, v := range vs {
			buildHome[v] = i
		}
	}
	for i, vs := range probeVals {
		for _, v := range vs {
			if buildHome[v] != i {
				t.Fatalf("key %d probed on output %d but built on output %d", v, i, buildHome[v])
			}
		}
	}
}

func TestAdaptiveExchangeDisabledIsPlainPartition(t *testing.T) {
	ctx := bare()
	ctx.adaptiveExchangeRows = -1
	eps, st := newAdaptiveExchange(ctx, []Operator{pagesOf(1, 2, 3)}, []int{0}, 2, exGather)
	if st != nil {
		t.Fatal("disabled adaptive exchange still returned shared state")
	}
	vals, errs := drainAll(t, eps)
	for i := range eps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if len(vals[0])+len(vals[1]) != 3 {
		t.Fatalf("disabled mode lost rows: %v / %v", vals[0], vals[1])
	}
}
