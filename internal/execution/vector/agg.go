package vector

import (
	"fmt"
	"math"
	"strings"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// Agg is one aggregate's state by group id, updated a page at a time: a
// typed kernel (NewAgg), or a caller's boxed states for an aggregate no
// kernel takes (the engine's approx_distinct, plugins, nested arguments).
// Both take raw rows as argument blocks and emit the plan's intermediate
// and final types, so a Partial, spill and the partial/final split cannot
// tell them apart. The kernels emit typed blocks straight from their flat
// state slices (no boxing), at these intermediate types:
//
//	count            -> int64 (never null)
//	sum(bigint)      -> int64 or null
//	sum(double)      -> float64 or null
//	min/max          -> value or null
//	avg              -> row(sum double, count bigint), never null
type Agg interface {
	// Grow extends the state to cover group ids < n.
	Grow(n int)
	// AddRaw accumulates n raw input rows; args are the argument columns,
	// none for count(*).
	AddRaw(ids []int32, args []block.Block, n int) error
	// AddIntermediate merges an intermediate column (the FINAL step).
	AddIntermediate(ids []int32, b block.Block, n int) error
	// EmitIntermediate / EmitFinal emit groups [from, to) as a column.
	EmitIntermediate(from, to int) block.Block
	EmitFinal(from, to int) block.Block
	// Reset drops all state (post-spill rebuild, a spill merge's next
	// page). Blocks emitted before it keep their values.
	Reset()
}

// kernel is a typed aggregate over its argument's view (nil for count(*)).
type kernel interface {
	Grow(n int)
	add(ids []int32, arg *View, n int)
	AddIntermediate(ids []int32, b block.Block, n int) error
	EmitIntermediate(from, to int) block.Block
	EmitFinal(from, to int) block.Block
	Reset()
}

// typed is the Agg of a kernel: it views the argument column as the kernel
// reads it.
type typed struct {
	kernel
	kind Kind
	star bool // count(*): reads no argument
	view View
}

func (a *typed) AddRaw(ids []int32, args []block.Block, n int) error {
	if a.star {
		a.add(ids, nil, n)
		return nil
	}
	if err := ViewAs(args[0], a.kind, n, &a.view); err != nil {
		return err
	}
	a.add(ids, &a.view, n)
	return nil
}

// NewAgg builds the typed aggregate for a function name and argument type
// (nil for count(*)); ok is false for aggregates with no typed kernel
// (approx_distinct, plugins, nested argument types), which the caller runs
// on states of its own. DISTINCT is the caller's too.
func NewAgg(name string, argType *types.Type) (Agg, bool) {
	k, ok := newKernel(strings.ToLower(name), argType)
	if !ok {
		return nil, false
	}
	kind, _ := KindOf(argType)
	return &typed{kernel: k, kind: kind, star: argType == nil}, true
}

func newKernel(name string, argType *types.Type) (kernel, bool) {
	if argType == nil { // only count takes no argument
		return &countAgg{}, name == "count"
	}
	switch name {
	case "count":
		if _, ok := KindOf(argType); !ok {
			return nil, false
		}
		return &countAgg{}, true
	case "sum":
		switch argType.Kind {
		case types.KindBigint, types.KindInteger:
			return &sumInt64Agg{}, true
		case types.KindDouble:
			return &sumFloat64Agg{}, true
		}
		return nil, false
	case "min", "max":
		k, ok := KindOf(argType)
		if !ok {
			return nil, false
		}
		return &minMaxAgg{kind: k, typ: argType, isMax: name == "max"}, true
	case "avg":
		switch argType.Kind {
		case types.KindBigint, types.KindInteger, types.KindDouble:
			return &avgAgg{}, true
		}
		return nil, false
	default:
		return nil, false
	}
}

// ViewAs views rows [0, n) of b, which must be of kind k, flattening first
// the encodings the typed views reject (a dictionary over a dictionary, the
// sort's indirection blocks).
func ViewAs(b block.Block, k Kind, n int, v *View) error {
	if Of(b, v) && v.Kind == k && v.N >= n {
		return nil
	}
	flat := block.MaterializePage(&block.Page{Blocks: []block.Block{b}, N: n}).Blocks[0]
	if !Of(flat, v) || v.Kind != k || v.N < n {
		return fmt.Errorf("vector: a %T where %d rows of kind %d belong", b, n, k)
	}
	return nil
}

// viewOrNil fills v from b, returning nil on unsupported shapes (callers
// then use the boxed fallback).
func viewOrNil(b block.Block, v *View) *View {
	if Of(b, v) {
		return v
	}
	return nil
}

// ---------------------------------------------------------------------------
// count / count(x)

type countAgg struct {
	counts []int64
	view   View
}

func (a *countAgg) Grow(n int) { a.counts = grown(a.counts, n) }

func (a *countAgg) add(ids []int32, arg *View, n int) {
	if arg == nil {
		for r := 0; r < n; r++ {
			a.counts[ids[r]]++
		}
		return
	}
	for r := 0; r < n; r++ {
		if arg.at(r) >= 0 {
			a.counts[ids[r]]++
		}
	}
}

func (a *countAgg) AddIntermediate(ids []int32, b block.Block, n int) error {
	v := viewOrNil(b, &a.view)
	if v == nil || v.Kind != KindInt64 {
		return fmt.Errorf("vector: count intermediate is %T, want int64", b)
	}
	for r := 0; r < n; r++ {
		if i := v.at(r); i >= 0 {
			a.counts[ids[r]] += v.I64[i]
		}
	}
	return nil
}

func (a *countAgg) EmitIntermediate(from, to int) block.Block {
	return &block.Int64Block{Values: a.counts[from:to]}
}
func (a *countAgg) EmitFinal(from, to int) block.Block { return a.EmitIntermediate(from, to) }
func (a *countAgg) Reset()                             { a.counts = nil }

// ---------------------------------------------------------------------------
// sum(bigint)

type sumInt64Agg struct {
	sums []int64
	set  []bool
	view View
}

func (a *sumInt64Agg) Grow(n int) {
	a.sums = grown(a.sums, n)
	a.set = grown(a.set, n)
}

func (a *sumInt64Agg) add(ids []int32, arg *View, n int) {
	if arg.flat() {
		for r, x := range arg.I64[:n] {
			g := ids[r]
			a.sums[g] += x
			a.set[g] = true
		}
		return
	}
	for r := 0; r < n; r++ {
		if i := arg.at(r); i >= 0 {
			g := ids[r]
			a.sums[g] += arg.I64[i]
			a.set[g] = true
		}
	}
}

func (a *sumInt64Agg) AddIntermediate(ids []int32, b block.Block, n int) error {
	v := viewOrNil(b, &a.view)
	if v == nil || v.Kind != KindInt64 {
		return fmt.Errorf("vector: sum(bigint) intermediate is %T, want int64", b)
	}
	a.add(ids, v, n)
	return nil
}

func (a *sumInt64Agg) EmitIntermediate(from, to int) block.Block {
	return &block.Int64Block{Values: a.sums[from:to], Nulls: nullsFromSet(a.set[from:to])}
}
func (a *sumInt64Agg) EmitFinal(from, to int) block.Block { return a.EmitIntermediate(from, to) }
func (a *sumInt64Agg) Reset()                             { a.sums, a.set = nil, nil }

// ---------------------------------------------------------------------------
// sum(double)

type sumFloat64Agg struct {
	sums []float64
	set  []bool
	view View
}

func (a *sumFloat64Agg) Grow(n int) {
	a.sums = grown(a.sums, n)
	a.set = grown(a.set, n)
}

func (a *sumFloat64Agg) add(ids []int32, arg *View, n int) {
	if arg.flat() {
		for r, x := range arg.F64[:n] {
			g := ids[r]
			a.sums[g] += x
			a.set[g] = true
		}
		return
	}
	for r := 0; r < n; r++ {
		if i := arg.at(r); i >= 0 {
			g := ids[r]
			a.sums[g] += arg.F64[i]
			a.set[g] = true
		}
	}
}

func (a *sumFloat64Agg) AddIntermediate(ids []int32, b block.Block, n int) error {
	v := viewOrNil(b, &a.view)
	if v == nil || v.Kind != KindFloat64 {
		return fmt.Errorf("vector: sum(double) intermediate is %T, want float64", b)
	}
	a.add(ids, v, n)
	return nil
}

func (a *sumFloat64Agg) EmitIntermediate(from, to int) block.Block {
	return &block.Float64Block{Values: a.sums[from:to], Nulls: nullsFromSet(a.set[from:to])}
}
func (a *sumFloat64Agg) EmitFinal(from, to int) block.Block { return a.EmitIntermediate(from, to) }
func (a *sumFloat64Agg) Reset()                             { a.sums, a.set = nil, nil }

// ---------------------------------------------------------------------------
// min / max

// minMaxAgg keeps the best value per group in a typed Column-like layout.
// Doubles order as numbers, with NaN below every number (floatBetter), as
// expr's min/max order them: the answer does not depend on the order rows or
// partial states arrive in.
type minMaxAgg struct {
	kind  Kind
	typ   *types.Type
	isMax bool
	i64   []int64
	f64   []float64
	str   []string
	set   []bool
	view  View
}

func (a *minMaxAgg) Grow(n int) {
	switch a.kind {
	case KindFloat64:
		a.f64 = grown(a.f64, n)
	case KindString:
		a.str = grown(a.str, n)
	default: // int64, bool (0/1)
		a.i64 = grown(a.i64, n)
	}
	a.set = grown(a.set, n)
}

func (a *minMaxAgg) add(ids []int32, arg *View, n int) {
	for r := 0; r < n; r++ {
		i := arg.at(r)
		if i < 0 {
			continue
		}
		g := ids[r]
		switch a.kind {
		case KindInt64:
			x := arg.I64[i]
			if !a.set[g] || (a.isMax && x > a.i64[g]) || (!a.isMax && x < a.i64[g]) {
				a.i64[g] = x
			}
		case KindFloat64:
			x := arg.F64[i]
			if !a.set[g] || floatBetter(x, a.f64[g], a.isMax) {
				a.f64[g] = x
			}
		case KindBool:
			var x int64
			if arg.B[i] {
				x = 1
			}
			if !a.set[g] || (a.isMax && x > a.i64[g]) || (!a.isMax && x < a.i64[g]) {
				a.i64[g] = x
			}
		default:
			x := arg.S[i]
			if !a.set[g] || (a.isMax && x > a.str[g]) || (!a.isMax && x < a.str[g]) {
				a.str[g] = x
			}
		}
		a.set[g] = true
	}
}

// floatBetter reports whether x replaces best: min is NaN once any input is,
// max only when every input is.
func floatBetter(x, best float64, isMax bool) bool {
	if isMax {
		return x > best || math.IsNaN(best) && !math.IsNaN(x)
	}
	return x < best || math.IsNaN(x) && !math.IsNaN(best)
}

func (a *minMaxAgg) AddIntermediate(ids []int32, b block.Block, n int) error {
	v := viewOrNil(b, &a.view)
	if v == nil || v.Kind != a.kind {
		return fmt.Errorf("vector: min/max intermediate is %T, want kind %d", b, a.kind)
	}
	a.add(ids, v, n)
	return nil
}

func (a *minMaxAgg) EmitIntermediate(from, to int) block.Block {
	nulls := nullsFromSet(a.set[from:to])
	switch a.kind {
	case KindFloat64:
		return &block.Float64Block{Values: a.f64[from:to], Nulls: nulls}
	case KindString:
		return &block.VarcharBlock{Values: a.str[from:to], Nulls: nulls}
	case KindBool:
		vals := make([]bool, to-from)
		for i := range vals {
			vals[i] = a.i64[from+i] != 0
		}
		return &block.BoolBlock{Values: vals, Nulls: nulls}
	default:
		return &block.Int64Block{Values: a.i64[from:to], Nulls: nulls}
	}
}
func (a *minMaxAgg) EmitFinal(from, to int) block.Block { return a.EmitIntermediate(from, to) }

func (a *minMaxAgg) Reset() { a.i64, a.f64, a.str, a.set = nil, nil, nil, nil }

// ---------------------------------------------------------------------------
// avg

type avgAgg struct {
	sums   []float64
	counts []int64
	view   View
}

func (a *avgAgg) Grow(n int) {
	a.sums = grown(a.sums, n)
	a.counts = grown(a.counts, n)
}

func (a *avgAgg) add(ids []int32, arg *View, n int) {
	for r := 0; r < n; r++ {
		i := arg.at(r)
		if i < 0 {
			continue
		}
		g := ids[r]
		if arg.Kind == KindFloat64 {
			a.sums[g] += arg.F64[i]
		} else {
			a.sums[g] += float64(arg.I64[i])
		}
		a.counts[g]++
	}
}

// AddIntermediate merges row(sum double, count bigint) intermediates. The
// typed path reads flat RowBlock fields directly; any other shape falls
// back to boxed pairs.
func (a *avgAgg) AddIntermediate(ids []int32, b block.Block, n int) error {
	if rb, ok := block.Unwrap(b).(*block.RowBlock); ok && len(rb.Fields) == 2 {
		sums, sok := block.Unwrap(rb.Fields[0]).(*block.Float64Block)
		counts, cok := block.Unwrap(rb.Fields[1]).(*block.Int64Block)
		if sok && cok {
			for r := 0; r < n; r++ {
				if rb.IsNull(r) || sums.IsNull(r) || counts.IsNull(r) {
					continue
				}
				g := ids[r]
				a.sums[g] += sums.Values[r]
				a.counts[g] += counts.Values[r]
			}
			return nil
		}
	}
	for r := 0; r < n; r++ {
		v := b.Value(r)
		if v == nil {
			continue
		}
		pair, ok := v.([]any)
		if !ok || len(pair) != 2 {
			return fmt.Errorf("vector: avg intermediate is %T, want (sum, count) pair", v)
		}
		g := ids[r]
		a.sums[g] += asF64(pair[0])
		a.counts[g] += asI64(pair[1])
	}
	return nil
}

func (a *avgAgg) EmitIntermediate(from, to int) block.Block {
	return block.NewRowBlock(to-from, []block.Block{
		&block.Float64Block{Values: a.sums[from:to]},
		&block.Int64Block{Values: a.counts[from:to]},
	}, nil)
}

func (a *avgAgg) EmitFinal(from, to int) block.Block {
	vals := make([]float64, to-from)
	var nulls []bool
	for i := range vals {
		n := a.counts[from+i]
		if n == 0 {
			if nulls == nil {
				nulls = make([]bool, to-from)
			}
			nulls[i] = true
			continue
		}
		vals[i] = a.sums[from+i] / float64(n)
	}
	return &block.Float64Block{Values: vals, Nulls: nulls}
}

func (a *avgAgg) Reset() { a.sums, a.counts = nil, nil }

// ---------------------------------------------------------------------------

// nullsFromSet inverts a set mask into a null mask, or nil when every group
// is set.
func nullsFromSet(set []bool) []bool {
	var nulls []bool
	for i, s := range set {
		if !s {
			if nulls == nil {
				nulls = make([]bool, len(set))
			}
			nulls[i] = true
		}
	}
	return nulls
}

func asF64(v any) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case int64:
		return float64(t)
	}
	panic(fmt.Sprintf("vector: not numeric: %T", v))
}

func asI64(v any) int64 {
	switch t := v.(type) {
	case int64:
		return t
	case float64:
		return int64(t)
	}
	panic(fmt.Sprintf("vector: not numeric: %T", v))
}
