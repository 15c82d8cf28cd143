package expr

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"prestolite/internal/execution/vector"
	"prestolite/internal/types"
)

// AggregateFunction describes one overload of an aggregate. Aggregation runs
// in two phases when distributed (partial on workers, final on the
// coordinator side — Fig 2 of the paper): states produce a serializable
// intermediate value that a final-phase state can merge.
type AggregateFunction struct {
	// Name is the lower-case aggregate name.
	Name string
	// Params are declared parameter types; nil accepts any type.
	// count(*) has zero params.
	Params []*types.Type
	// IntermediateType is the type of the partial-aggregation output.
	IntermediateType func(args []*types.Type) *types.Type
	// FinalType is the type of the final result.
	FinalType func(args []*types.Type) *types.Type
	// NewState creates an empty accumulator.
	NewState func(args []*types.Type) AggState
}

// AggState accumulates input rows or partial states.
type AggState interface {
	// Add accumulates one raw input row (len = number of aggregate args).
	Add(vals []any)
	// AddIntermediate merges one partial value produced by Intermediate.
	AddIntermediate(v any)
	// Intermediate returns the partial state boxed in block convention.
	Intermediate() any
	// Final returns the final aggregate value.
	Final() any
}

var (
	aggMu       sync.RWMutex
	aggRegistry = map[string][]*AggregateFunction{}
)

// RegisterAggregate adds an aggregate overload to the global registry.
func RegisterAggregate(f *AggregateFunction) {
	aggMu.Lock()
	defer aggMu.Unlock()
	aggRegistry[f.Name] = append(aggRegistry[f.Name], f)
}

// ResolveAggregate finds the aggregate overload matching argTypes.
func ResolveAggregate(name string, argTypes []*types.Type) (*AggregateFunction, error) {
	aggMu.RLock()
	defer aggMu.RUnlock()
	overloads := aggRegistry[strings.ToLower(name)]
	for _, f := range overloads {
		if len(f.Params) != len(argTypes) {
			continue
		}
		ok := true
		for i, p := range f.Params {
			if p != nil && !typeAccepts(p, argTypes[i]) {
				ok = false
				break
			}
		}
		if ok {
			return f, nil
		}
	}
	if len(overloads) == 0 {
		return nil, fmt.Errorf("expr: unknown aggregate %q", name)
	}
	strs := make([]string, len(argTypes))
	for i, t := range argTypes {
		strs[i] = t.String()
	}
	return nil, fmt.Errorf("expr: no overload of aggregate %q for (%s)", name, strings.Join(strs, ", "))
}

// IsAggregate reports whether name is a registered aggregate.
func IsAggregate(name string) bool {
	aggMu.RLock()
	defer aggMu.RUnlock()
	return len(aggRegistry[strings.ToLower(name)]) > 0
}

// ---------------------------------------------------------------------------
// Built-in aggregates.

type countState struct{ n int64 }

func (s *countState) Add(vals []any) {
	if len(vals) == 0 || vals[0] != nil {
		s.n++
	}
}
func (s *countState) AddIntermediate(v any) {
	if v != nil {
		s.n += asInt64(v)
	}
}
func (s *countState) Intermediate() any { return s.n }
func (s *countState) Final() any        { return s.n }

type sumInt64State struct {
	sum     int64
	nonNull bool
}

func (s *sumInt64State) Add(vals []any) {
	if vals[0] == nil {
		return
	}
	s.sum += asInt64(vals[0])
	s.nonNull = true
}
func (s *sumInt64State) AddIntermediate(v any) {
	if v == nil {
		return
	}
	s.sum += asInt64(v)
	s.nonNull = true
}
func (s *sumInt64State) Intermediate() any { return s.Final() }
func (s *sumInt64State) Final() any {
	if !s.nonNull {
		return nil
	}
	return s.sum
}

type sumFloat64State struct {
	sum     float64
	nonNull bool
}

func (s *sumFloat64State) Add(vals []any) {
	if vals[0] == nil {
		return
	}
	s.sum += asFloat64(vals[0])
	s.nonNull = true
}
func (s *sumFloat64State) AddIntermediate(v any) {
	if v == nil {
		return
	}
	s.sum += asFloat64(v)
	s.nonNull = true
}
func (s *sumFloat64State) Intermediate() any { return s.Final() }
func (s *sumFloat64State) Final() any {
	if !s.nonNull {
		return nil
	}
	return s.sum
}

type minMaxState struct {
	best any
	max  bool
}

func (s *minMaxState) consider(v any) {
	if v == nil {
		return
	}
	if s.best == nil {
		s.best = v
		return
	}
	c := CompareValues(v, s.best)
	if x, ok := v.(float64); ok && c == 0 {
		// NaN orders below every number, so the answer does not depend on
		// the order values arrive in.
		c = nanRank(x) - nanRank(s.best.(float64))
	}
	if (s.max && c > 0) || (!s.max && c < 0) {
		s.best = v
	}
}

func nanRank(x float64) int {
	if math.IsNaN(x) {
		return -1
	}
	return 0
}

func (s *minMaxState) Add(vals []any)        { s.consider(vals[0]) }
func (s *minMaxState) AddIntermediate(v any) { s.consider(v) }
func (s *minMaxState) Intermediate() any     { return s.best }
func (s *minMaxState) Final() any            { return s.best }

// avgState keeps (sum, count); its intermediate is a row(sum double,
// count bigint) so partial states survive the exchange.
type avgState struct {
	sum float64
	n   int64
}

var avgIntermediateType = types.NewRow(
	types.Field{Name: "sum", Type: types.Double},
	types.Field{Name: "count", Type: types.Bigint},
)

func (s *avgState) Add(vals []any) {
	if vals[0] == nil {
		return
	}
	s.sum += asFloat64(vals[0])
	s.n++
}

func (s *avgState) AddIntermediate(v any) {
	if v == nil {
		return
	}
	pair := v.([]any)
	s.sum += asFloat64(pair[0])
	s.n += asInt64(pair[1])
}

func (s *avgState) Intermediate() any { return []any{s.sum, s.n} }

func (s *avgState) Final() any {
	if s.n == 0 {
		return nil
	}
	return s.sum / float64(s.n)
}

// approxDistinctState implements approx_distinct with a simple linear
// counting fallback (exact over a set of vector.AppendKey bytes) — good
// enough for a simulator.
type approxDistinctState struct {
	seen map[string]struct{}
	buf  []byte
}

func (s *approxDistinctState) Add(vals []any) {
	if vals[0] == nil {
		return
	}
	s.buf = vector.AppendKey(s.buf[:0], vals[0])
	s.seen[string(s.buf)] = struct{}{}
}

func (s *approxDistinctState) AddIntermediate(v any) {
	if v == nil {
		return
	}
	for _, k := range v.([]any) {
		s.seen[k.(string)] = struct{}{}
	}
}

func (s *approxDistinctState) Intermediate() any {
	out := make([]any, 0, len(s.seen))
	for k := range s.seen {
		out = append(out, k)
	}
	return out
}

func (s *approxDistinctState) Final() any { return int64(len(s.seen)) }

func init() {
	RegisterAggregate(&AggregateFunction{
		Name: "count", Params: nil, // count(*)
		IntermediateType: fixedReturn(types.Bigint),
		FinalType:        fixedReturn(types.Bigint),
		NewState:         func([]*types.Type) AggState { return &countState{} },
	})
	RegisterAggregate(&AggregateFunction{
		Name: "count", Params: []*types.Type{nil},
		IntermediateType: fixedReturn(types.Bigint),
		FinalType:        fixedReturn(types.Bigint),
		NewState:         func([]*types.Type) AggState { return &countState{} },
	})
	RegisterAggregate(&AggregateFunction{
		Name: "sum", Params: []*types.Type{types.Bigint},
		IntermediateType: fixedReturn(types.Bigint),
		FinalType:        fixedReturn(types.Bigint),
		NewState:         func([]*types.Type) AggState { return &sumInt64State{} },
	})
	RegisterAggregate(&AggregateFunction{
		Name: "sum", Params: []*types.Type{types.Double},
		IntermediateType: fixedReturn(types.Double),
		FinalType:        fixedReturn(types.Double),
		NewState:         func([]*types.Type) AggState { return &sumFloat64State{} },
	})
	for _, name := range []string{"min", "max"} {
		name := name
		RegisterAggregate(&AggregateFunction{
			Name: name, Params: []*types.Type{nil},
			IntermediateType: func(args []*types.Type) *types.Type { return args[0] },
			FinalType:        func(args []*types.Type) *types.Type { return args[0] },
			NewState: func([]*types.Type) AggState {
				return &minMaxState{max: name == "max"}
			},
		})
	}
	RegisterAggregate(&AggregateFunction{
		Name: "avg", Params: []*types.Type{types.Bigint},
		IntermediateType: fixedReturn(avgIntermediateType),
		FinalType:        fixedReturn(types.Double),
		NewState:         func([]*types.Type) AggState { return &avgState{} },
	})
	RegisterAggregate(&AggregateFunction{
		Name: "avg", Params: []*types.Type{types.Double},
		IntermediateType: fixedReturn(avgIntermediateType),
		FinalType:        fixedReturn(types.Double),
		NewState:         func([]*types.Type) AggState { return &avgState{} },
	})
	RegisterAggregate(&AggregateFunction{
		Name: "approx_distinct", Params: []*types.Type{nil},
		IntermediateType: fixedReturn(types.NewArray(types.Varchar)),
		FinalType:        fixedReturn(types.Bigint),
		NewState: func([]*types.Type) AggState {
			return &approxDistinctState{seen: map[string]struct{}{}}
		},
	})
}
