package planner

import (
	"fmt"

	"prestolite/internal/expr"
	"prestolite/internal/sql"
	"prestolite/internal/types"
)

// aggItem is one distinct aggregate call discovered in the query.
type aggItem struct {
	fn       *expr.AggregateFunction
	funcName string
	distinct bool
	argAsts  []sql.Expr
	args     []expr.RowExpression // analyzed against source scope
	key      string               // dedupe key
	name     string               // output name ("count(*)")
}

// planAggregation plans GROUP BY / aggregate queries:
//
//	source → Project(group keys + agg args) → Aggregate → [Having Filter]
//	       → Project(select) [→ Sort → Limit → trim]
func (a *Analyzer) planAggregation(q *sql.Query, plan Node, srcScope *scope) (Node, *scope, error) {
	// 1. Group-by expressions (ordinals refer to select items).
	var groupAsts []sql.Expr
	for _, g := range q.GroupBy {
		if lit, ok := g.(*sql.Literal); ok {
			n, isInt := lit.Value.(int64)
			if !isInt {
				return nil, nil, fmt.Errorf("planner: GROUP BY literal must be an integer position")
			}
			if n < 1 || int(n) > len(q.Items) {
				return nil, nil, fmt.Errorf("planner: GROUP BY position %d is out of range", n)
			}
			item := q.Items[n-1]
			if item.Star {
				return nil, nil, fmt.Errorf("planner: GROUP BY position %d refers to *", n)
			}
			if containsAggregate(item.Expr) {
				return nil, nil, fmt.Errorf("planner: GROUP BY position %d refers to an aggregate", n)
			}
			groupAsts = append(groupAsts, item.Expr)
			continue
		}
		if containsAggregate(g) {
			return nil, nil, fmt.Errorf("planner: GROUP BY cannot contain aggregates")
		}
		groupAsts = append(groupAsts, g)
	}
	groupExprs := make([]expr.RowExpression, len(groupAsts))
	for i, g := range groupAsts {
		e, err := a.analyzeExpr(g, srcScope, false)
		if err != nil {
			return nil, nil, err
		}
		groupExprs[i] = e
	}

	// 2. Collect aggregate calls from select, having and order-by.
	collector := &aggCollector{analyzer: a, srcScope: srcScope, groupAsts: groupAsts}
	rewrittenItems := make([]sql.SelectItem, len(q.Items))
	for i, it := range q.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("planner: SELECT * cannot be combined with GROUP BY")
		}
		re, err := collector.rewrite(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		rewrittenItems[i] = sql.SelectItem{Expr: re, Alias: it.Alias}
	}
	var rewrittenHaving sql.Expr
	if q.Having != nil {
		var err error
		rewrittenHaving, err = collector.rewrite(q.Having)
		if err != nil {
			return nil, nil, err
		}
	}

	// 3. Pre-aggregation projection: group keys then deduped agg args.
	preExprs := append([]expr.RowExpression{}, groupExprs...)
	preNames := make([]string, len(groupExprs))
	for i, g := range groupAsts {
		preNames[i] = exprName(g)
	}
	argChannel := map[string]int{}
	for i, g := range groupAsts {
		argChannel[g.String()] = i
	}
	var aggs []Aggregation
	for _, item := range collector.aggs {
		argChans := make([]int, len(item.args))
		argTypes := make([]*types.Type, len(item.args))
		for j, arg := range item.args {
			key := item.argAsts[j].String()
			ch, ok := argChannel[key]
			if !ok {
				ch = len(preExprs)
				preExprs = append(preExprs, arg)
				preNames = append(preNames, exprName(item.argAsts[j]))
				argChannel[key] = ch
			}
			argChans[j] = ch
			argTypes[j] = arg.TypeOf()
		}
		aggs = append(aggs, Aggregation{
			FuncName:   item.funcName,
			Args:       argChans,
			ArgTypes:   argTypes,
			Distinct:   item.distinct,
			OutputName: item.name,
			InterType:  item.fn.IntermediateType(argTypes),
			FinalType:  item.fn.FinalType(argTypes),
		})
	}

	plan = &Project{Child: plan, Exprs: preExprs, Names: preNames}
	groupChans := make([]int, len(groupExprs))
	for i := range groupExprs {
		groupChans[i] = i
	}
	plan = &Aggregate{Child: plan, GroupBy: groupChans, Aggs: aggs, Step: AggSingle}

	// 4. Post-aggregation scope: $group<i> and $agg<i> names.
	postScope := &scope{}
	for i, g := range groupExprs {
		postScope.entries = append(postScope.entries, scopeEntry{name: fmt.Sprintf("$group%d", i), typ: g.TypeOf()})
	}
	for i, item := range collector.aggs {
		argTypes := make([]*types.Type, len(item.args))
		for j, arg := range item.args {
			argTypes[j] = arg.TypeOf()
		}
		postScope.entries = append(postScope.entries, scopeEntry{name: fmt.Sprintf("$agg%d", i), typ: item.fn.FinalType(argTypes)})
	}

	// 5. HAVING.
	if rewrittenHaving != nil {
		pred, err := a.analyzeExpr(rewrittenHaving, postScope, false)
		if err != nil {
			return nil, nil, err
		}
		plan = &Filter{Child: plan, Predicate: pred}
	}

	// 6. Final projection from aggregate outputs.
	var projExprs []expr.RowExpression
	var projNames []string
	for i, it := range rewrittenItems {
		e, err := a.analyzeExpr(it.Expr, postScope, false)
		if err != nil {
			return nil, nil, err
		}
		projExprs = append(projExprs, e)
		projNames = append(projNames, selectItemName(q.Items[i]))
	}
	visible := len(projExprs)
	outScope := &scope{}
	for i := range projExprs {
		outScope.entries = append(outScope.entries, scopeEntry{name: projNames[i], typ: projExprs[i].TypeOf()})
	}

	// 7. ORDER BY (aliases/ordinals, or expressions over the agg scope).
	var sortKeys []SortKey
	for _, item := range q.OrderBy {
		ch, found, err := resolveOrderTarget(item.Expr, outScope, q.Items)
		if err != nil {
			return nil, nil, err
		}
		if !found {
			re, err := collector.rewrite(item.Expr)
			if err != nil {
				return nil, nil, err
			}
			e, err := a.analyzeExpr(re, postScope, false)
			if err != nil {
				return nil, nil, fmt.Errorf("planner: ORDER BY %s must be an output column, aggregate, or grouped expression: %w", item.Expr, err)
			}
			ch = len(projExprs)
			projExprs = append(projExprs, e)
			projNames = append(projNames, fmt.Sprintf("$sort%d", ch))
		}
		if err := orderable("ORDER BY", projExprs[ch].TypeOf()); err != nil {
			return nil, nil, err
		}
		sortKeys = append(sortKeys, SortKey{Channel: ch, Desc: item.Desc})
	}

	plan = &Project{Child: plan, Exprs: projExprs, Names: projNames}
	if len(sortKeys) > 0 {
		plan = &Sort{Child: plan, Keys: sortKeys}
	}
	if q.Limit != nil {
		plan = &Limit{Child: plan, N: *q.Limit}
	}
	if len(projExprs) > visible {
		cols := plan.Outputs()
		trim := make([]expr.RowExpression, visible)
		names := make([]string, visible)
		for i := 0; i < visible; i++ {
			trim[i] = expr.NewVariable(cols[i].Name, i, cols[i].Type)
			names[i] = projNames[i]
		}
		plan = &Project{Child: plan, Exprs: trim, Names: names}
	}
	return plan, outScope, nil
}

// exprName derives a column name for a derived channel.
func exprName(e sql.Expr) string {
	if id, ok := e.(*sql.Ident); ok {
		return id.Parts[len(id.Parts)-1]
	}
	return e.String()
}

// aggCollector rewrites post-aggregation ASTs: aggregate calls become
// $agg<i> identifiers and group-by expressions become $group<i> identifiers,
// so the standard expression analyzer can run over the aggregate's output
// scope.
type aggCollector struct {
	analyzer  *Analyzer
	srcScope  *scope
	groupAsts []sql.Expr
	aggs      []*aggItem
}

func (c *aggCollector) rewrite(e sql.Expr) (sql.Expr, error) {
	// Group expression match first (an aggregate call can legally be a
	// group key only if it appeared in GROUP BY, which we rejected).
	rendered := e.String()
	for i, g := range c.groupAsts {
		if g.String() == rendered {
			return &sql.Ident{Parts: []string{fmt.Sprintf("$group%d", i)}}, nil
		}
	}
	switch t := e.(type) {
	case *sql.FuncCall:
		if expr.IsAggregate(t.Name) {
			return c.recordAggregate(t)
		}
		args := make([]sql.Expr, len(t.Args))
		for i, arg := range t.Args {
			na, err := c.rewrite(arg)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &sql.FuncCall{Name: t.Name, Args: args}, nil
	case *sql.Binary:
		l, err := c.rewrite(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.rewrite(t.Right)
		if err != nil {
			return nil, err
		}
		return &sql.Binary{Op: t.Op, Left: l, Right: r}, nil
	case *sql.Unary:
		inner, err := c.rewrite(t.Expr)
		if err != nil {
			return nil, err
		}
		return &sql.Unary{Op: t.Op, Expr: inner}, nil
	case *sql.Between:
		v, err := c.rewrite(t.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := c.rewrite(t.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.rewrite(t.Hi)
		if err != nil {
			return nil, err
		}
		return &sql.Between{Expr: v, Lo: lo, Hi: hi, Not: t.Not}, nil
	case *sql.InList:
		v, err := c.rewrite(t.Expr)
		if err != nil {
			return nil, err
		}
		list := make([]sql.Expr, len(t.List))
		for i, item := range t.List {
			list[i], err = c.rewrite(item)
			if err != nil {
				return nil, err
			}
		}
		return &sql.InList{Expr: v, List: list, Not: t.Not}, nil
	case *sql.IsNull:
		v, err := c.rewrite(t.Expr)
		if err != nil {
			return nil, err
		}
		return &sql.IsNull{Expr: v, Not: t.Not}, nil
	case *sql.Case:
		out := &sql.Case{}
		for _, w := range t.Whens {
			cond, err := c.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := c.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, sql.WhenClause{Cond: cond, Then: then})
		}
		if t.Else != nil {
			e2, err := c.rewrite(t.Else)
			if err != nil {
				return nil, err
			}
			out.Else = e2
		}
		return out, nil
	case *sql.Cast:
		v, err := c.rewrite(t.Expr)
		if err != nil {
			return nil, err
		}
		return &sql.Cast{Expr: v, TypeName: t.TypeName}, nil
	case *sql.Literal:
		return t, nil
	case *sql.Ident:
		// Not a group key and not inside an aggregate: invalid reference.
		return nil, fmt.Errorf("planner: column %q must appear in GROUP BY or be used in an aggregate function", t)
	default:
		return nil, fmt.Errorf("planner: unsupported expression %T in aggregation query", e)
	}
}

func (c *aggCollector) recordAggregate(f *sql.FuncCall) (sql.Expr, error) {
	if containsAggregate(anyExprs(f.Args)) {
		return nil, fmt.Errorf("planner: nested aggregate in %s", f)
	}
	key := f.String()
	for i, existing := range c.aggs {
		if existing.key == key {
			return &sql.Ident{Parts: []string{fmt.Sprintf("$agg%d", i)}}, nil
		}
	}
	item := &aggItem{funcName: f.Name, distinct: f.Distinct, key: key, name: f.String()}
	var argTypes []*types.Type
	if !f.Star {
		for _, arg := range f.Args {
			ae, err := c.analyzer.analyzeExpr(arg, c.srcScope, false)
			if err != nil {
				return nil, err
			}
			item.args = append(item.args, ae)
			item.argAsts = append(item.argAsts, arg)
			argTypes = append(argTypes, ae.TypeOf())
		}
	}
	fn, err := expr.ResolveAggregate(f.Name, argTypes)
	if err != nil {
		// Try widening numeric args (avg over integer etc. already matches;
		// this covers sum(varchar) style errors cleanly).
		return nil, err
	}
	if fn.Name == "min" || fn.Name == "max" {
		if err := orderable(fn.Name, argTypes[0]); err != nil {
			return nil, err
		}
	}
	item.fn = fn
	c.aggs = append(c.aggs, item)
	return &sql.Ident{Parts: []string{fmt.Sprintf("$agg%d", len(c.aggs)-1)}}, nil
}
