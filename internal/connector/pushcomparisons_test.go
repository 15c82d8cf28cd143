package connector

import (
	"math/rand"
	"testing"

	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// TestPushComparisonsKeepsThePredicate is the lowerer's contract: for any
// predicate and any row, the WHERE keeps the row (the predicate is true, not
// false and not NULL) exactly when every pushed comparison matches it and the
// residual is true. Random conjunct trees, random rows with NULLs, an accept
// that refuses at random.
func TestPushComparisonsKeepsThePredicate(t *testing.T) {
	cols := []Column{
		{Name: "n", Type: types.Bigint},
		{Name: "d", Type: types.Double},
		{Name: "s", Type: types.Varchar},
		{Name: "b", Type: types.Boolean},
	}
	r := rand.New(rand.NewSource(16))
	value := func(ord int) any {
		switch ord {
		case 0:
			return int64(r.Intn(7) - 3)
		case 1:
			return []float64{-1.5, 0, 0.5, 1, 2.5}[r.Intn(5)]
		case 2:
			return []string{"", "a", "b", "a,b", "san francisco"}[r.Intn(5)]
		}
		return r.Intn(2) == 1
	}
	variable := func(ord int) expr.RowExpression { return expr.NewVariable(cols[ord].Name, ord, cols[ord].Type) }
	constant := func(ord int) expr.RowExpression {
		if r.Intn(8) == 0 {
			return expr.NewConstant(nil, cols[ord].Type)
		}
		return expr.NewConstant(value(ord), cols[ord].Type)
	}
	ops := []string{"eq", "neq", "lt", "lte", "gt", "gte"}
	var leaf func(depth int) expr.RowExpression
	leaf = func(depth int) expr.RowExpression {
		ord := r.Intn(len(cols))
		op := ops[r.Intn(len(ops))]
		switch k := r.Intn(10); {
		case k < 3:
			return expr.MustCall(op, variable(ord), constant(ord))
		case k < 5:
			return expr.MustCall(op, constant(ord), variable(ord))
		case k < 7:
			args := []expr.RowExpression{variable(ord)}
			for i := r.Intn(3) + 1; i > 0; i-- {
				args = append(args, constant(ord))
			}
			return &expr.SpecialForm{Form: expr.FormIn, Args: args, Ret: types.Boolean}
		case k == 7:
			return expr.MustCall(op, variable(ord), variable(ord))
		case k == 8 && depth < 2:
			return expr.Or(leaf(depth+1), leaf(depth+1))
		case depth < 2:
			return expr.Not(leaf(depth + 1))
		}
		return expr.MustCall(op, expr.MustCall("add", variable(0), expr.NewConstant(int64(1), types.Bigint)), constant(0))
	}
	var tree func(depth int) expr.RowExpression
	tree = func(depth int) expr.RowExpression {
		args := make([]expr.RowExpression, r.Intn(4)+1)
		for i := range args {
			if depth < 2 && r.Intn(4) == 0 {
				args[i] = tree(depth + 1)
			} else {
				args[i] = leaf(0)
			}
		}
		if len(args) == 1 {
			return args[0]
		}
		// Not expr.And: a nested AND must reach Conjuncts unflattened.
		return &expr.SpecialForm{Form: expr.FormAnd, Args: args, Ret: types.Boolean}
	}
	isTrue := func(e expr.RowExpression, row []any) bool {
		v, err := expr.EvalRowValue(e, row)
		if err != nil {
			t.Fatalf("%s on %v: %v", e, row, err)
		}
		return v == true
	}

	pushedTotal, residualTotal := 0, 0
	for i := 0; i < 400; i++ {
		pred := tree(0)
		var taken []expr.Comparison
		residual, pushed := PushComparisons(pred, ColumnByOrdinal(cols), func(c expr.Comparison) bool {
			if r.Intn(4) == 0 {
				return false
			}
			taken = append(taken, c)
			return true
		})
		if pushed != (len(taken) > 0) {
			t.Fatalf("%s: pushed=%v with %d comparisons taken", pred, pushed, len(taken))
		}
		if !pushed && residual != pred {
			t.Fatalf("%s: nothing pushed, yet the residual is %v", pred, residual)
		}
		for _, c := range taken {
			if len(c.Values) != 1 && c.Op != expr.OpIn {
				t.Fatalf("%s: lowered to %s", pred, c)
			}
			for _, v := range c.Values {
				switch v.(type) {
				case int64, float64, string, bool:
				default:
					t.Fatalf("%s: lowered to %s, which holds a %T", pred, c, v)
				}
			}
		}
		pushedTotal += len(taken)
		if residual != nil {
			residualTotal++
		}
		ordinal := map[string]int{}
		for ord, c := range cols {
			ordinal[c.Name] = ord
		}
		for j := 0; j < 40; j++ {
			row := make([]any, len(cols))
			for ord := range row {
				if r.Intn(5) > 0 {
					row[ord] = value(ord)
				}
			}
			got := residual == nil || isTrue(residual, row)
			for _, c := range taken {
				got = got && c.Match(row[ordinal[c.Column]])
			}
			if want := isTrue(pred, row); got != want {
				t.Fatalf("WHERE %s on %v is %v; pushed %v with residual %v says %v", pred, row, want, taken, residual, got)
			}
		}
	}
	if pushedTotal < 400 || residualTotal < 100 {
		t.Errorf("generator is lopsided: %d comparisons pushed, %d predicates with a residual", pushedTotal, residualTotal)
	}
}
