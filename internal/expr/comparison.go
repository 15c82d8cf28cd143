package expr

import (
	"encoding/gob"
	"fmt"
	"strconv"
	"strings"
)

// The one pushable predicate (§IV.A, §V.F): what the optimizer hands a
// connector, what a connector's handle carries to the workers, and what each
// store evaluates. A connector lowers a predicate's conjuncts with
// LowerComparison and its own column resolver; everything it does not take
// stays with the engine as the residual.

func init() {
	// Comparison.Values is boxed: these are the types it may hold.
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
}

// CompareOp enumerates the comparisons a store evaluates for the engine. An
// integer, because the Parquet reader's typed selection kernels switch on it.
type CompareOp int

const (
	OpEq CompareOp = iota
	OpNeq
	OpLt
	OpLte
	OpGt
	OpGte
	OpIn
)

var (
	opSymbols = [...]string{OpEq: "=", OpNeq: "<>", OpLt: "<", OpLte: "<=", OpGt: ">", OpGte: ">=", OpIn: "IN"}
	// opByFunction maps the comparison functions of the registry to their op.
	opByFunction = map[string]CompareOp{"eq": OpEq, "neq": OpNeq, "lt": OpLt, "lte": OpLte, "gt": OpGt, "gte": OpGte}
)

func (op CompareOp) String() string {
	if op < 0 || int(op) >= len(opSymbols) {
		return "op(" + strconv.Itoa(int(op)) + ")"
	}
	return opSymbols[op]
}

// Flip returns the operator that holds with the operands exchanged:
// 7 < col is col > 7.
func (op CompareOp) Flip() CompareOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLte:
		return OpGte
	case OpGt:
		return OpLt
	case OpGte:
		return OpLte
	}
	return op
}

// Comparison is "Column Op Values": a column (or dotted struct path) against
// one non-NULL primitive constant, or several for OpIn. Values are boxed
// int64, float64, string or bool.
type Comparison struct {
	Column string
	Op     CompareOp
	Values []any
}

// Match evaluates the comparison on one boxed value of the column. NULL (nil)
// never matches, which is what a WHERE conjunct does with it.
func (c Comparison) Match(v any) bool {
	if v == nil {
		return false
	}
	if c.Op == OpIn {
		for _, w := range c.Values {
			if CompareValues(v, w) == 0 {
				return true
			}
		}
		return false
	}
	cmp := CompareValues(v, c.Values[0])
	switch c.Op {
	case OpEq:
		return cmp == 0
	case OpNeq:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLte:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGte:
		return cmp >= 0
	}
	return false
}

// OverlapsStats reports whether any value in [min, max] can match (the
// row-group skipping test of §V.F, Fig 7). Without statistics (nil) nothing
// can be excluded.
func (c Comparison) OverlapsStats(min, max any) bool {
	if min == nil || max == nil {
		return true
	}
	within := func(v any) bool { return CompareValues(v, min) >= 0 && CompareValues(v, max) <= 0 }
	switch c.Op {
	case OpEq:
		return within(c.Values[0])
	case OpIn:
		for _, v := range c.Values {
			if within(v) {
				return true
			}
		}
		return false
	case OpLt:
		return CompareValues(min, c.Values[0]) < 0
	case OpLte:
		return CompareValues(min, c.Values[0]) <= 0
	case OpGt:
		return CompareValues(max, c.Values[0]) > 0
	case OpGte:
		return CompareValues(max, c.Values[0]) >= 0
	default: // OpNeq: stats can only prove min==max==v
		return !(CompareValues(min, max) == 0 && CompareValues(min, c.Values[0]) == 0)
	}
}

// String renders the comparison for TableHandle.Description, which is part of
// the result-cache key: two comparisons that select different rows must never
// render alike. Strings are quoted, a float64 never looks like an int64, an IN
// list is delimited, and a column that is not a plain dotted identifier is
// quoted too.
func (c Comparison) String() string {
	var sb strings.Builder
	if plainColumn(c.Column) {
		sb.WriteString(c.Column)
	} else {
		sb.WriteString(strconv.Quote(c.Column))
	}
	sb.WriteByte(' ')
	sb.WriteString(c.Op.String())
	sb.WriteByte(' ')
	if c.Op != OpIn && len(c.Values) == 1 {
		writeLiteral(&sb, c.Values[0])
		return sb.String()
	}
	sb.WriteByte('(')
	for i, v := range c.Values {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeLiteral(&sb, v)
	}
	sb.WriteByte(')')
	return sb.String()
}

func plainColumn(s string) bool {
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if !(ch == '_' || ch == '.' || '0' <= ch && ch <= '9' || 'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z') {
			return false
		}
	}
	return s != ""
}

func writeLiteral(sb *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		sb.WriteString(strconv.Quote(x))
	case int64:
		sb.WriteString(strconv.FormatInt(x, 10))
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		sb.WriteString(s)
		if !strings.ContainsAny(s, ".eIN") { // 2 → 2.0; 1e+21, +Inf and NaN already differ from any int64
			sb.WriteString(".0")
		}
	case bool:
		sb.WriteString(strconv.FormatBool(x))
	default:
		fmt.Fprintf(sb, "%T(%#v)", v, v)
	}
}

// Conjuncts flattens nested ANDs into the list of their operands.
func Conjuncts(e RowExpression) []RowExpression {
	if sf, ok := e.(*SpecialForm); ok && sf.Form == FormAnd {
		var out []RowExpression
		for _, a := range sf.Args {
			out = append(out, Conjuncts(a)...)
		}
		return out
	}
	return []RowExpression{e}
}

// LowerComparison lowers one conjunct of the shapes `col op const`,
// `const op col` (the operator flips) and `col IN (consts)` to a Comparison.
// columnOf says which expressions are columns to the caller, and by what name:
// a connector resolves an ordinal (or a dereference chain) against its table,
// the planner recognises one channel. Anything else — a NULL or non-primitive
// constant, a cast around the column, an OR — is not lowered, and stays with
// the engine.
func LowerComparison(conjunct RowExpression, columnOf func(RowExpression) (string, bool)) (Comparison, bool) {
	switch t := conjunct.(type) {
	case *Call:
		op, known := opByFunction[t.Handle.Name]
		if !known || len(t.Args) != 2 {
			return Comparison{}, false
		}
		if col, ok := columnOf(t.Args[0]); ok {
			if v, ok := primitiveConstant(t.Args[1]); ok {
				return Comparison{Column: col, Op: op, Values: []any{v}}, true
			}
		}
		if col, ok := columnOf(t.Args[1]); ok {
			if v, ok := primitiveConstant(t.Args[0]); ok {
				return Comparison{Column: col, Op: op.Flip(), Values: []any{v}}, true
			}
		}
	case *SpecialForm:
		if t.Form != FormIn || len(t.Args) == 0 {
			return Comparison{}, false
		}
		col, ok := columnOf(t.Args[0])
		if !ok {
			return Comparison{}, false
		}
		values := make([]any, 0, len(t.Args)-1)
		for _, a := range t.Args[1:] {
			v, ok := primitiveConstant(a)
			if !ok {
				return Comparison{}, false
			}
			values = append(values, v)
		}
		return Comparison{Column: col, Op: OpIn, Values: values}, true
	}
	return Comparison{}, false
}

func primitiveConstant(e RowExpression) (any, bool) {
	c, ok := e.(*Constant)
	if !ok {
		return nil, false
	}
	switch c.Value.(type) {
	case int64, float64, string, bool:
		return c.Value, true
	}
	return nil, false
}
