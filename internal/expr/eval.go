package expr

import (
	"fmt"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/types"
)

// Eval evaluates e against a page and returns a block of page.Count()
// results. Evaluation is vectorized: hot paths (int64/float64 comparisons
// and arithmetic) run tight loops over flat blocks; everything else falls
// back to a boxed per-row loop.
func Eval(e RowExpression, page *block.Page) (block.Block, error) {
	switch t := e.(type) {
	case *Constant:
		return block.NewRunLengthBlock(block.SingleValue(constBlockType(t.Type), t.Value), page.Count()), nil
	case *Variable:
		if t.Channel < 0 || t.Channel >= len(page.Blocks) {
			return nil, fmt.Errorf("expr: variable %s references channel %d of %d-channel page", t.Name, t.Channel, len(page.Blocks))
		}
		return page.Blocks[t.Channel], nil
	case *Call:
		return evalCall(t, page)
	case *SpecialForm:
		return evalSpecialForm(t, page)
	case *Lambda:
		return nil, fmt.Errorf("expr: lambda cannot be evaluated as a column")
	default:
		return nil, fmt.Errorf("expr: cannot evaluate %T", e)
	}
}

// constBlockType maps unknown to bigint storage for the null literal.
func constBlockType(t *types.Type) *types.Type {
	if t.Kind == types.KindUnknown {
		return types.Bigint
	}
	return t
}

// EvalFilter evaluates a boolean expression and returns the positions where
// it is true (NULL counts as false, per SQL WHERE semantics).
func EvalFilter(e RowExpression, page *block.Page) ([]int, error) {
	return EvalFilterInto(e, page, nil)
}

// EvalFilterInto is EvalFilter writing the selected positions into buf
// (append semantics from buf[:0]), so a caller that keeps a scratch vector —
// the filter operator holds one for its whole lifetime — pays no per-page
// allocation. buf may be nil.
func EvalFilterInto(e RowExpression, page *block.Page, buf []int) ([]int, error) {
	b, err := Eval(e, page)
	if err != nil {
		return nil, err
	}
	b = block.Unwrap(b)
	n := page.Count()
	positions := buf[:0]
	if cap(positions) == 0 {
		positions = make([]int, 0, n)
	}
	// The selection kernel understands flat, dictionary and run-length bool
	// blocks (a dict-encoded predicate keeps its indirection through
	// fastKernel, so this is the common case for filters over encoded scans).
	var fv vector.View
	if vector.Of(b, &fv) && fv.Kind == vector.KindBool {
		return vector.SelectTrue(&fv, n, positions), nil
	}
	for i := 0; i < n; i++ {
		if v := b.Value(i); v == true {
			positions = append(positions, i)
		}
	}
	return positions, nil
}

// EvalRowValue evaluates e against a single boxed row (used by the
// row-at-a-time baseline and by tests).
func EvalRowValue(e RowExpression, row []any) (any, error) {
	page := singleRowPage(row)
	b, err := Eval(e, page)
	if err != nil {
		return nil, err
	}
	return b.Value(0), nil
}

func singleRowPage(row []any) *block.Page {
	blocks := make([]block.Block, len(row))
	for i, v := range row {
		blocks[i] = boxedSingle(v)
	}
	return &block.Page{Blocks: blocks, N: 1}
}

func boxedSingle(v any) block.Block {
	switch x := v.(type) {
	case nil:
		return &block.Int64Block{Values: []int64{0}, Nulls: []bool{true}}
	case int64:
		return &block.Int64Block{Values: []int64{x}}
	case int:
		return &block.Int64Block{Values: []int64{int64(x)}}
	case float64:
		return &block.Float64Block{Values: []float64{x}}
	case bool:
		return &block.BoolBlock{Values: []bool{x}}
	case string:
		return &block.VarcharBlock{Values: []string{x}}
	default:
		// nested: build a one-off generic block
		return genericBlock{vals: []any{v}}
	}
}

// genericBlock is a boxed fallback block for single nested values.
type genericBlock struct{ vals []any }

func (g genericBlock) Count() int        { return len(g.vals) }
func (g genericBlock) IsNull(i int) bool { return g.vals[i] == nil }
func (g genericBlock) Value(i int) any   { return g.vals[i] }
func (g genericBlock) Region(offset, length int) block.Block {
	return genericBlock{vals: g.vals[offset : offset+length]}
}
func (g genericBlock) Mask(positions []int) block.Block {
	out := make([]any, len(positions))
	for i, p := range positions {
		out[i] = g.vals[p]
	}
	return genericBlock{vals: out}
}
func (g genericBlock) SizeBytes() int { return 32 * len(g.vals) }

func evalCall(c *Call, page *block.Page) (block.Block, error) {
	args := make([]block.Block, len(c.Args))
	for i, a := range c.Args {
		b, err := Eval(a, page)
		if err != nil {
			return nil, err
		}
		args[i] = block.Unwrap(b)
	}
	n := page.Count()
	// Vectorized fast paths for the hot kernels.
	if out := fastKernel(c.Handle.Name, args, n); out != nil {
		return out, nil
	}
	argTypes := make([]*types.Type, len(c.Args))
	for i, a := range c.Args {
		argTypes[i] = a.TypeOf()
	}
	fn, err := Resolve(c.Handle.Name, argTypes)
	if err != nil {
		return nil, err
	}
	builder := block.NewBuilder(c.Ret, n)
	row := make([]any, len(args))
	for i := 0; i < n; i++ {
		anyNull := false
		for j, ab := range args {
			row[j] = ab.Value(i)
			if row[j] == nil {
				anyNull = true
			}
		}
		if anyNull && !fn.CalledOnNull {
			builder.AppendNull()
			continue
		}
		v, err := fn.EvalRow(row)
		if err != nil {
			return nil, err
		}
		builder.Append(v)
	}
	return builder.Build(), nil
}

// mirrorKernel maps an operator to its argument-swapped equivalent, letting
// a constant left-hand side reuse the col⊗const kernels.
var mirrorKernel = map[string]string{
	"eq": "eq", "neq": "neq",
	"lt": "gt", "lte": "gte", "gt": "lt", "gte": "lte",
	"add": "add", "multiply": "multiply",
}

// fastKernel dispatches vectorized implementations for the hot kernels,
// aware of the numeric encodings: flat⊗flat and flat⊗const run tight typed
// loops, run-length inputs evaluate once and re-expand, and dictionary
// inputs evaluate over their (much smaller) dictionaries. Returns nil if no
// fast path applies — the caller falls back to the boxed row loop.
func fastKernel(name string, args []block.Block, n int) block.Block {
	if len(args) != 2 {
		return nil
	}
	a, b := args[0], args[1]
	ra, aIsRLE := a.(*block.RunLengthBlock)
	rb, bIsRLE := b.(*block.RunLengthBlock)
	switch {
	case aIsRLE && bIsRLE:
		// const ⊗ const: evaluate the single position once and re-expand.
		if out := fastKernel(name, []block.Block{ra.Single, rb.Single}, 1); out != nil {
			return block.NewRunLengthBlock(out, n)
		}
		return nil
	case aIsRLE:
		// const ⊗ col mirrors to col ⊗ const (b is not RLE here, so this
		// recurses at most once).
		if m, ok := mirrorKernel[name]; ok {
			return fastKernel(m, []block.Block{b, a}, n)
		}
		return nil
	}
	// dict ⊗ const evaluates over the dictionary — O(distinct values)
	// instead of O(rows) — and keeps the id indirection, so downstream
	// consumers (selection kernels, aggregation views) still see the
	// encoding.
	if da, ok := a.(*block.DictionaryBlock); ok && bIsRLE {
		dn := da.Dictionary.Count()
		if out := fastKernel(name, []block.Block{da.Dictionary, block.NewRunLengthBlock(rb.Single, dn)}, dn); out != nil {
			return &block.DictionaryBlock{Dictionary: out, Ids: da.Ids}
		}
		return nil
	}
	switch av := a.(type) {
	case *block.Int64Block:
		if name == "divide" {
			return nil // integer division can fail: the row loop reports it
		}
		if bools, nums, nulls := flatKernel(name, av.Values[:n], av.Nulls, b, n); bools != nil {
			return &block.BoolBlock{Values: bools, Nulls: nulls}
		} else if nums != nil {
			return &block.Int64Block{Values: nums, Nulls: nulls}
		}
	case *block.Float64Block:
		if bools, nums, nulls := flatKernel(name, av.Values[:n], av.Nulls, b, n); bools != nil {
			return &block.BoolBlock{Values: bools, Nulls: nulls}
		} else if nums != nil {
			return &block.Float64Block{Values: nums, Nulls: nulls}
		}
	}
	return nil
}

// flatKernel runs name over a flat column and b, which is a flat column of
// the same type or a non-null constant of it (a run-length block): a
// comparison answers bools, arithmetic nums, anything else neither.
func flatKernel[T int64 | float64](name string, av []T, aNulls []bool, b block.Block, n int) (bools []bool, nums []T, nulls []bool) {
	switch bv := b.(type) {
	case *block.Int64Block:
		if vals, ok := any(bv.Values).([]T); ok {
			bools, nums = colKernel(name, av, vals[:n])
			return bools, nums, mergeNulls(aNulls, bv.Nulls, n)
		}
	case *block.Float64Block:
		if vals, ok := any(bv.Values).([]T); ok {
			bools, nums = colKernel(name, av, vals[:n])
			return bools, nums, mergeNulls(aNulls, bv.Nulls, n)
		}
	case *block.RunLengthBlock:
		if c, ok := bv.Single.Value(0).(T); ok && !bv.Single.IsNull(0) {
			bools, nums = constKernel(name, av, c)
			return bools, nums, aNulls
		}
	}
	return nil, nil, nil
}

func mergeNulls(a, b []bool, n int) []bool {
	if a == nil && b == nil {
		return nil
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = (a != nil && a[i]) || (b != nil && b[i])
	}
	return out
}

// colKernel is col ⊗ col over equally long flat values. The operator is
// chosen outside the loops, so each is a tight typed loop in either
// instantiation.
func colKernel[T int64 | float64](name string, av, bv []T) ([]bool, []T) {
	switch name {
	case "eq", "neq", "lt", "lte", "gt", "gte":
		out := make([]bool, len(av))
		switch name {
		case "eq":
			for i, a := range av {
				out[i] = a == bv[i]
			}
		case "neq":
			for i, a := range av {
				out[i] = a != bv[i]
			}
		case "lt":
			for i, a := range av {
				out[i] = a < bv[i]
			}
		case "lte":
			for i, a := range av {
				out[i] = a <= bv[i]
			}
		case "gt":
			for i, a := range av {
				out[i] = a > bv[i]
			}
		case "gte":
			for i, a := range av {
				out[i] = a >= bv[i]
			}
		}
		return out, nil
	case "add", "subtract", "multiply", "divide":
		out := make([]T, len(av))
		switch name {
		case "add":
			for i, a := range av {
				out[i] = a + bv[i]
			}
		case "subtract":
			for i, a := range av {
				out[i] = a - bv[i]
			}
		case "multiply":
			for i, a := range av {
				out[i] = a * bv[i]
			}
		case "divide":
			for i, a := range av {
				out[i] = a / bv[i]
			}
		}
		return nil, out
	}
	return nil, nil
}

// constKernel is col ⊗ const, loop for loop like colKernel.
func constKernel[T int64 | float64](name string, av []T, c T) ([]bool, []T) {
	switch name {
	case "eq", "neq", "lt", "lte", "gt", "gte":
		out := make([]bool, len(av))
		switch name {
		case "eq":
			for i, a := range av {
				out[i] = a == c
			}
		case "neq":
			for i, a := range av {
				out[i] = a != c
			}
		case "lt":
			for i, a := range av {
				out[i] = a < c
			}
		case "lte":
			for i, a := range av {
				out[i] = a <= c
			}
		case "gt":
			for i, a := range av {
				out[i] = a > c
			}
		case "gte":
			for i, a := range av {
				out[i] = a >= c
			}
		}
		return out, nil
	case "add", "subtract", "multiply", "divide":
		out := make([]T, len(av))
		switch name {
		case "add":
			for i, a := range av {
				out[i] = a + c
			}
		case "subtract":
			for i, a := range av {
				out[i] = a - c
			}
		case "multiply":
			for i, a := range av {
				out[i] = a * c
			}
		case "divide":
			for i, a := range av {
				out[i] = a / c
			}
		}
		return nil, out
	}
	return nil, nil
}

func evalSpecialForm(s *SpecialForm, page *block.Page) (block.Block, error) {
	n := page.Count()
	switch s.Form {
	case FormAnd, FormOr:
		// Three-valued logic, vectorized over BoolBlocks.
		identity := s.Form == FormAnd // AND starts true, OR starts false
		vals := make([]bool, n)
		nulls := make([]bool, n)
		for i := range vals {
			vals[i] = identity
		}
		for _, arg := range s.Args {
			ab, err := Eval(arg, page)
			if err != nil {
				return nil, err
			}
			ab = block.Unwrap(ab)
			for i := 0; i < n; i++ {
				v := ab.Value(i)
				if v == nil {
					nulls[i] = true
					continue
				}
				bv := v.(bool)
				if s.Form == FormAnd {
					if !bv {
						vals[i] = false
						nulls[i] = false // FALSE dominates NULL in AND
					} else if nulls[i] {
						// stays null
					} else {
						vals[i] = vals[i] && bv
					}
				} else {
					if bv {
						vals[i] = true
						nulls[i] = false // TRUE dominates NULL in OR
					} else if nulls[i] {
						// stays null
					} else {
						vals[i] = vals[i] || bv
					}
				}
			}
		}
		// A position that saw a dominating value must keep it even if a later
		// arg was null; handle by re-scanning: above logic already prevents
		// un-dominating since once vals[i] is false (AND) we never set null.
		// But a null seen before a false must be cleared:
		return cleanupTVL(s, page, vals, nulls, n)
	case FormNot:
		ab, err := Eval(s.Args[0], page)
		if err != nil {
			return nil, err
		}
		ab = block.Unwrap(ab)
		vals := make([]bool, n)
		var nulls []bool
		for i := 0; i < n; i++ {
			v := ab.Value(i)
			if v == nil {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				continue
			}
			vals[i] = !v.(bool)
		}
		return &block.BoolBlock{Values: vals, Nulls: nulls}, nil
	case FormIsNull:
		ab, err := Eval(s.Args[0], page)
		if err != nil {
			return nil, err
		}
		ab = block.Unwrap(ab)
		vals := make([]bool, n)
		for i := 0; i < n; i++ {
			vals[i] = ab.IsNull(i)
		}
		return &block.BoolBlock{Values: vals}, nil
	case FormIf:
		// IF(cond, then, else?) — evaluate all branches, select per row.
		cond, err := Eval(s.Args[0], page)
		if err != nil {
			return nil, err
		}
		cond = block.Unwrap(cond)
		thenB, err := Eval(s.Args[1], page)
		if err != nil {
			return nil, err
		}
		thenB = block.Unwrap(thenB)
		var elseB block.Block
		if len(s.Args) > 2 {
			elseB, err = Eval(s.Args[2], page)
			if err != nil {
				return nil, err
			}
			elseB = block.Unwrap(elseB)
		}
		builder := block.NewBuilder(s.Ret, n)
		for i := 0; i < n; i++ {
			if cond.Value(i) == true {
				builder.Append(thenB.Value(i))
			} else if elseB != nil {
				builder.Append(elseB.Value(i))
			} else {
				builder.AppendNull()
			}
		}
		return builder.Build(), nil
	case FormCoalesce:
		blocks := make([]block.Block, len(s.Args))
		for i, a := range s.Args {
			b, err := Eval(a, page)
			if err != nil {
				return nil, err
			}
			blocks[i] = block.Unwrap(b)
		}
		builder := block.NewBuilder(s.Ret, n)
		for i := 0; i < n; i++ {
			appended := false
			for _, b := range blocks {
				if v := b.Value(i); v != nil {
					builder.Append(v)
					appended = true
					break
				}
			}
			if !appended {
				builder.AppendNull()
			}
		}
		return builder.Build(), nil
	case FormDereference:
		base, err := Eval(s.Args[0], page)
		if err != nil {
			return nil, err
		}
		base = block.Unwrap(base)
		fieldName := s.Args[1].(*Constant).Value.(string)
		baseType := s.Args[0].TypeOf()
		idx := baseType.FieldIndex(fieldName)
		if idx < 0 {
			return nil, fmt.Errorf("expr: no field %q in %s", fieldName, baseType)
		}
		if rb, ok := base.(*block.RowBlock); ok {
			child := rb.Fields[idx]
			if rb.Nulls == nil {
				return child, nil
			}
			// struct-level nulls propagate to the field
			builder := block.NewBuilder(s.Ret, n)
			for i := 0; i < n; i++ {
				if rb.Nulls[i] {
					builder.AppendNull()
				} else {
					builder.Append(child.Value(i))
				}
			}
			return builder.Build(), nil
		}
		builder := block.NewBuilder(s.Ret, n)
		for i := 0; i < n; i++ {
			v := base.Value(i)
			if v == nil {
				builder.AppendNull()
				continue
			}
			builder.Append(v.([]any)[idx])
		}
		return builder.Build(), nil
	case FormIn:
		needle, err := Eval(s.Args[0], page)
		if err != nil {
			return nil, err
		}
		needle = block.Unwrap(needle)
		hay := make([]block.Block, len(s.Args)-1)
		for i, a := range s.Args[1:] {
			b, err := Eval(a, page)
			if err != nil {
				return nil, err
			}
			hay[i] = block.Unwrap(b)
		}
		vals := make([]bool, n)
		var nulls []bool
		for i := 0; i < n; i++ {
			nv := needle.Value(i)
			if nv == nil {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				continue
			}
			found := false
			sawNull := false
			for _, hb := range hay {
				hv := hb.Value(i)
				if hv == nil {
					sawNull = true
					continue
				}
				if !unordered(nv, hv) && CompareValues(nv, hv) == 0 {
					found = true
					break
				}
			}
			if found {
				vals[i] = true
			} else if sawNull {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
			}
		}
		return &block.BoolBlock{Values: vals, Nulls: nulls}, nil
	case FormBetween:
		v, err := Eval(s.Args[0], page)
		if err != nil {
			return nil, err
		}
		lo, err := Eval(s.Args[1], page)
		if err != nil {
			return nil, err
		}
		hi, err := Eval(s.Args[2], page)
		if err != nil {
			return nil, err
		}
		v, lo, hi = block.Unwrap(v), block.Unwrap(lo), block.Unwrap(hi)
		vals := make([]bool, n)
		var nulls []bool
		for i := 0; i < n; i++ {
			vv, lv, hv := v.Value(i), lo.Value(i), hi.Value(i)
			if vv == nil || lv == nil || hv == nil {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				continue
			}
			vals[i] = !unordered(vv, lv) && !unordered(vv, hv) && CompareValues(vv, lv) >= 0 && CompareValues(vv, hv) <= 0
		}
		return &block.BoolBlock{Values: vals, Nulls: nulls}, nil
	default:
		return nil, fmt.Errorf("expr: unsupported special form %s", s.Form)
	}
}

// cleanupTVL re-evaluates AND/OR positions that mixed NULL with a dominating
// value in the wrong order. The vectorized loop above handles
// false-after-null for AND and true-after-null for OR, but a null seen after
// a dominating value must not taint it; since we never set nulls[i] back once
// a dominating value clears it... it actually can: a later null arg sets
// nulls[i]=true unconditionally. Fix by row-wise re-evaluation of tainted
// positions only.
func cleanupTVL(s *SpecialForm, page *block.Page, vals, nulls []bool, n int) (block.Block, error) {
	tainted := make([]int, 0)
	for i := 0; i < n; i++ {
		if nulls[i] {
			tainted = append(tainted, i)
		}
	}
	if len(tainted) == 0 {
		return &block.BoolBlock{Values: vals}, nil
	}
	sub := page.Mask(tainted)
	for out, origPos := range tainted {
		result := any(nil) // null unless dominated
		for _, arg := range s.Args {
			b, err := Eval(arg, sub.Region(out, 1))
			if err != nil {
				return nil, err
			}
			v := block.Unwrap(b).Value(0)
			if v == nil {
				continue
			}
			bv := v.(bool)
			if s.Form == FormAnd && !bv {
				result = false
				break
			}
			if s.Form == FormOr && bv {
				result = true
				break
			}
		}
		if result != nil {
			vals[origPos] = result.(bool)
			nulls[origPos] = false
		} else {
			vals[origPos] = false
			nulls[origPos] = true
		}
	}
	anyNull := false
	for _, isNull := range nulls {
		if isNull {
			anyNull = true
			break
		}
	}
	if !anyNull {
		nulls = nil
	}
	return &block.BoolBlock{Values: vals, Nulls: nulls}, nil
}
