package expr

import (
	"fmt"
	"strconv"
	"strings"

	"prestolite/internal/types"
)

// The one pushable predicate (§IV.A, §V.F): what the optimizer hands a
// connector, what a connector's handle carries to the workers, and what each
// store evaluates. A connector lowers a predicate's conjuncts with
// LowerComparison and its own column resolver; everything it does not take
// stays with the engine as the residual.

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
			if !unordered(v, w) && CompareValues(v, w) == 0 {
				return true
			}
		}
		return false
	}
	if unordered(v, c.Values[0]) {
		return c.Op == OpNeq
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
// can be excluded. The statistic is always the left operand of CompareValues,
// as the column's value is in Match, so a literal of another numeric kind is
// converted the same way in both. Double statistics describe the values that
// are not NaN; a NaN matches only <>, which therefore never skips a double
// unit.
func (c Comparison) OverlapsStats(min, max any) bool {
	if min == nil || max == nil {
		return true
	}
	within := func(v any) bool { return CompareValues(min, v) <= 0 && CompareValues(max, v) >= 0 }
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
	default: // OpNeq: stats can only prove min==max==v, and not that no NaN is there
		if _, double := min.(float64); double {
			return true
		}
		return !(CompareValues(min, max) == 0 && CompareValues(min, c.Values[0]) == 0)
	}
}

// CoversStats is the dual of OverlapsStats: it reports whether every non-NULL
// value in [min, max] must match, so a store may skip evaluating the
// comparison over a unit that holds no NULL. Without statistics (nil) nothing
// can be proven.
func (c Comparison) CoversStats(min, max any) bool {
	if min == nil || max == nil {
		return false
	}
	for _, v := range c.Values {
		if unordered(v, v) { // a NaN literal (0.0/0.0 folds to one): only <> matches, and every number
			return c.Op == OpNeq
		}
	}
	only := func(v any) bool { return CompareValues(min, v) == 0 && CompareValues(max, v) == 0 }
	switch c.Op {
	case OpEq:
		return only(c.Values[0])
	case OpIn:
		for _, v := range c.Values {
			if only(v) {
				return true
			}
		}
		return false
	case OpLt:
		return CompareValues(max, c.Values[0]) < 0
	case OpLte:
		return CompareValues(max, c.Values[0]) <= 0
	case OpGt:
		return CompareValues(min, c.Values[0]) > 0
	case OpGte:
		return CompareValues(min, c.Values[0]) >= 0
	default: // OpNeq
		return CompareValues(min, c.Values[0]) > 0 || CompareValues(max, c.Values[0]) < 0
	}
}

// Matcher is a Comparison bound to a column's storage kind: exactly one field
// is set, and the literals are already converted the way CompareValues
// converts its right operand (an int64 literal against a double column
// compares as double, a double literal against a bigint column truncates).
// Stores evaluate it in typed loops: no boxed value per row.
type Matcher struct {
	Ints   func(int64) bool
	Floats func(float64) bool
	Strs   func(string) bool
	Bools  func(bool) bool
}

// Bind builds c's Matcher for a column of type t. A literal the column's kind
// cannot be compared with is an error here rather than a panic per row.
func (c Comparison) Bind(t *types.Type) (Matcher, error) {
	if len(c.Values) == 0 && c.Op != OpIn {
		return Matcher{}, fmt.Errorf("expr: comparison on %q has no value", c.Column)
	}
	mismatch := func(v any) error {
		return fmt.Errorf("expr: comparison %s: cannot compare a %s column with %T", c, t, v)
	}
	switch t.Kind {
	case types.KindDouble:
		lits := make([]float64, len(c.Values))
		for i, v := range c.Values {
			switch x := v.(type) {
			case float64:
				lits[i] = x
			case int64:
				lits[i] = float64(x)
			default:
				return Matcher{}, mismatch(v)
			}
		}
		return Matcher{Floats: orderedMatcher(c.Op, lits)}, nil
	case types.KindVarchar:
		lits := make([]string, len(c.Values))
		for i, v := range c.Values {
			x, ok := v.(string)
			if !ok {
				return Matcher{}, mismatch(v)
			}
			lits[i] = x
		}
		return Matcher{Strs: orderedMatcher(c.Op, lits)}, nil
	case types.KindBoolean:
		// false < true, as CompareValues orders them.
		lits := make([]int64, len(c.Values))
		for i, v := range c.Values {
			x, ok := v.(bool)
			if !ok {
				return Matcher{}, mismatch(v)
			}
			lits[i] = boolRank(x)
		}
		m := orderedMatcher(c.Op, lits)
		return Matcher{Bools: func(v bool) bool { return m(boolRank(v)) }}, nil
	default: // the integer kinds
		lits := make([]int64, len(c.Values))
		for i, v := range c.Values {
			switch x := v.(type) {
			case int64:
				lits[i] = x
			case float64:
				lits[i] = int64(x)
			default:
				return Matcher{}, mismatch(v)
			}
		}
		return Matcher{Ints: orderedMatcher(c.Op, lits)}, nil
	}
}

func boolRank(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// orderedMatcher builds the comparison for one operator with Go's operators,
// which on doubles are IEEE 754's: a NaN matches only <>.
func orderedMatcher[T int64 | float64 | string](op CompareOp, lits []T) func(T) bool {
	if op == OpIn {
		return func(v T) bool {
			for _, w := range lits {
				if v == w {
					return true
				}
			}
			return false
		}
	}
	lit := lits[0]
	switch op {
	case OpEq:
		return func(v T) bool { return v == lit }
	case OpNeq:
		return func(v T) bool { return v != lit }
	case OpLt:
		return func(v T) bool { return v < lit }
	case OpLte:
		return func(v T) bool { return v <= lit }
	case OpGt:
		return func(v T) bool { return v > lit }
	case OpGte:
		return func(v T) bool { return v >= lit }
	}
	return func(T) bool { return false }
}

// String renders the comparison for TableHandle.Description, for EXPLAIN:
// two comparisons that select different rows should not read alike. Strings
// are quoted, a float64 never looks like an int64, an IN list is delimited,
// and a column that is not a plain dotted identifier is quoted too.
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
