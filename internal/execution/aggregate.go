package execution

import (
	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// Estimated heap cost of an entry of a DISTINCT seen table; groups cost
// vector.GroupBaseCost plus vector.AggStateCost per aggregate. Group costs
// are only charged for grouped aggregations — a global aggregate is a single
// constant-size state, so the paper's "count(*) works at any limit"
// expectation holds.
const aggDistinctCost = 32

// newAgg builds aggregate a's state: its typed kernel when it has one,
// boxed states of fn otherwise.
func newAgg(a planner.Aggregation, fn *expr.AggregateFunction) vector.Agg {
	var arg *types.Type // nil for count(*)
	if len(a.ArgTypes) > 0 {
		arg = a.ArgTypes[0]
	}
	if agg, ok := vector.NewAgg(a.FuncName, arg); ok {
		return agg
	}
	return &boxedAgg{fn: fn, a: a}
}

// boxedAgg runs an aggregate with no typed kernel — approx_distinct, a
// plugin such as build_geo_index, count of a nested column — on one
// expr.AggState per group id, fed boxed values of every argument. It emits
// at the plan's intermediate and final types, as a typed kernel does.
type boxedAgg struct {
	fn     *expr.AggregateFunction
	a      planner.Aggregation
	states []expr.AggState
	vals   []any
}

func (b *boxedAgg) Grow(n int) {
	for len(b.states) < n {
		b.states = append(b.states, b.fn.NewState(b.a.ArgTypes))
	}
}

func (b *boxedAgg) AddRaw(ids []int32, args []block.Block, n int) error {
	if len(b.vals) != len(args) {
		b.vals = make([]any, len(args))
	}
	for r := 0; r < n; r++ {
		for i, arg := range args {
			b.vals[i] = arg.Value(r)
		}
		b.states[ids[r]].Add(b.vals)
	}
	return nil
}

func (b *boxedAgg) AddIntermediate(ids []int32, blk block.Block, n int) error {
	for r := 0; r < n; r++ {
		b.states[ids[r]].AddIntermediate(blk.Value(r))
	}
	return nil
}

func (b *boxedAgg) EmitIntermediate(from, to int) block.Block {
	return b.emit(b.a.InterType, from, to, expr.AggState.Intermediate)
}

func (b *boxedAgg) EmitFinal(from, to int) block.Block {
	return b.emit(b.a.FinalType, from, to, expr.AggState.Final)
}

func (b *boxedAgg) emit(t *types.Type, from, to int, value func(expr.AggState) any) block.Block {
	out := block.NewBuilder(t, to-from)
	for _, st := range b.states[from:to] {
		out.Append(value(st))
	}
	return out.Build()
}

func (b *boxedAgg) Reset() { b.states = nil }
