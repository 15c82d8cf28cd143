package planner

import (
	"fmt"
	"strings"

	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/sql"
	"prestolite/internal/types"
)

// Session carries per-query context: default catalog/schema for unqualified
// table names and session properties (§XII.A).
type Session struct {
	Catalog string
	Schema  string
	User    string
	// Properties holds session properties; sessionProperties (session.go)
	// lists the names a session may set.
	Properties map[string]string
}

// Property returns a session property or its default.
func (s *Session) Property(name, def string) string {
	if s == nil || s.Properties == nil {
		return def
	}
	if v, ok := s.Properties[name]; ok {
		return v
	}
	return def
}

// Analyzer resolves an AST against connector metadata, producing a typed
// logical plan.
type Analyzer struct {
	Catalogs *connector.Registry
	Session  *Session
}

// Analyze plans a query. The returned plan is unoptimized.
func (a *Analyzer) Analyze(q *sql.Query) (Node, error) {
	plan, scope, err := a.planQuery(q)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(scope.entries))
	for i, e := range scope.entries {
		names[i] = e.name
	}
	return &Output{Child: plan, Names: names}, nil
}

// scopeEntry is one visible column during analysis.
type scopeEntry struct {
	qualifier string // table alias/name, "" for derived columns
	name      string
	typ       *types.Type
}

type scope struct {
	entries []scopeEntry
}

// resolve finds the channel and residual dereference path for an identifier.
func (s *scope) resolve(parts []string) (channel int, rest []string, err error) {
	// Qualified match: parts[0] is a table qualifier.
	if len(parts) >= 2 {
		found := -1
		for i, e := range s.entries {
			if e.qualifier == parts[0] && e.name == parts[1] {
				if found >= 0 {
					return 0, nil, fmt.Errorf("planner: ambiguous column %s", strings.Join(parts, "."))
				}
				found = i
			}
		}
		if found >= 0 {
			return found, parts[2:], nil
		}
	}
	// Unqualified match on parts[0]; remaining parts dereference into structs.
	found := -1
	for i, e := range s.entries {
		if e.name == parts[0] {
			if found >= 0 {
				return 0, nil, fmt.Errorf("planner: ambiguous column %q", parts[0])
			}
			found = i
		}
	}
	if found >= 0 {
		return found, parts[1:], nil
	}
	return 0, nil, fmt.Errorf("planner: column %q cannot be resolved", strings.Join(parts, "."))
}

// planQuery plans a full SELECT query, returning the plan and output scope.
func (a *Analyzer) planQuery(q *sql.Query) (Node, *scope, error) {
	var plan Node
	var srcScope *scope
	var err error

	if q.From == nil {
		// SELECT <exprs>: single-row Values source.
		plan = &Values{Cols: nil, Rows: [][]any{{}}}
		srcScope = &scope{}
	} else {
		plan, srcScope, err = a.planTableRef(q.From)
		if err != nil {
			return nil, nil, err
		}
	}

	if q.Where != nil {
		pred, err := a.analyzeExpr(q.Where, srcScope, false)
		if err != nil {
			return nil, nil, err
		}
		if pred.TypeOf().Kind != types.KindBoolean && pred.TypeOf().Kind != types.KindUnknown {
			return nil, nil, fmt.Errorf("planner: WHERE clause must be boolean, got %s", pred.TypeOf())
		}
		if containsAggregate(q.Where) {
			return nil, nil, fmt.Errorf("planner: aggregate functions are not allowed in WHERE")
		}
		plan = &Filter{Child: plan, Predicate: pred}
	}

	hasAgg := len(q.GroupBy) > 0 || containsAggregate(selectExprs(q)) || (q.Having != nil)
	if hasAgg {
		return a.planAggregation(q, plan, srcScope)
	}

	// Plain projection.
	projExprs, projNames, err := a.analyzeSelectItems(q.Items, srcScope)
	if err != nil {
		return nil, nil, err
	}
	visible := len(projExprs)
	outScope := &scope{}
	for i := range projExprs {
		outScope.entries = append(outScope.entries, scopeEntry{name: projNames[i], typ: projExprs[i].TypeOf()})
	}

	// ORDER BY: resolve against output aliases/ordinals first, then source
	// scope (appending hidden projection channels).
	var sortKeys []SortKey
	if len(q.OrderBy) > 0 {
		for _, item := range q.OrderBy {
			ch, found, err := resolveOrderTarget(item.Expr, outScope, q.Items)
			if err != nil {
				return nil, nil, err
			}
			if !found {
				e, err := a.analyzeExpr(item.Expr, srcScope, false)
				if err != nil {
					return nil, nil, fmt.Errorf("planner: ORDER BY expression %s cannot be resolved: %w", item.Expr, err)
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
	}

	plan = &Project{Child: plan, Exprs: projExprs, Names: projNames}
	if len(sortKeys) > 0 {
		plan = &Sort{Child: plan, Keys: sortKeys}
	}
	if q.Limit != nil {
		plan = &Limit{Child: plan, N: *q.Limit}
	}
	if len(projExprs) > visible {
		// Trim hidden sort channels.
		trim := make([]expr.RowExpression, visible)
		names := make([]string, visible)
		cols := plan.Outputs()
		for i := 0; i < visible; i++ {
			trim[i] = expr.NewVariable(cols[i].Name, i, cols[i].Type)
			names[i] = projNames[i]
		}
		plan = &Project{Child: plan, Exprs: trim, Names: names}
	}
	return plan, outScope, nil
}

func selectExprs(q *sql.Query) []sql.Expr {
	var out []sql.Expr
	for _, it := range q.Items {
		if !it.Star {
			out = append(out, it.Expr)
		}
	}
	if q.Having != nil {
		out = append(out, q.Having)
	}
	for _, o := range q.OrderBy {
		out = append(out, o.Expr)
	}
	return out
}

// containsAggregate reports whether any expression contains an aggregate call.
func containsAggregate(e any) bool {
	switch t := e.(type) {
	case nil:
		return false
	case []sql.Expr:
		for _, x := range t {
			if containsAggregate(x) {
				return true
			}
		}
		return false
	case *sql.FuncCall:
		if expr.IsAggregate(t.Name) {
			return true
		}
		return containsAggregate(anyExprs(t.Args))
	case *sql.Binary:
		return containsAggregate(t.Left) || containsAggregate(t.Right)
	case *sql.Unary:
		return containsAggregate(t.Expr)
	case *sql.Between:
		return containsAggregate(t.Expr) || containsAggregate(t.Lo) || containsAggregate(t.Hi)
	case *sql.InList:
		return containsAggregate(t.Expr) || containsAggregate(anyExprs(t.List))
	case *sql.IsNull:
		return containsAggregate(t.Expr)
	case *sql.Case:
		for _, w := range t.Whens {
			if containsAggregate(w.Cond) || containsAggregate(w.Then) {
				return true
			}
		}
		return containsAggregate(t.Else)
	case *sql.Cast:
		return containsAggregate(t.Expr)
	default:
		return false
	}
}

func anyExprs(in []sql.Expr) []sql.Expr { return in }

// orderable refuses to order by a type with no order — an array, map or
// row — for an ORDER BY key or a min/max argument (what). GROUP BY,
// DISTINCT and count over those types compare only for equality and stay
// legal.
func orderable(what string, t *types.Type) error {
	switch t.Kind {
	case types.KindArray, types.KindMap, types.KindRow:
		return &notOrderableError{what: what, typ: t}
	}
	return nil
}

// notOrderableError is the analyzer's refusal to order values of typ.
type notOrderableError struct {
	what string
	typ  *types.Type
}

func (e *notOrderableError) Error() string {
	return fmt.Sprintf("planner: %s over %s: values of the type have no order", e.what, e.typ)
}

// resolveOrderTarget maps an ORDER BY expression to an output channel via
// alias, ordinal, or textual match against a select item.
func resolveOrderTarget(e sql.Expr, out *scope, items []sql.SelectItem) (int, bool, error) {
	if lit, ok := e.(*sql.Literal); ok {
		n, ok := lit.Value.(int64)
		if !ok {
			return 0, false, fmt.Errorf("planner: ORDER BY position must be an integer")
		}
		if n < 1 || int(n) > len(out.entries) {
			return 0, false, fmt.Errorf("planner: ORDER BY position %d is out of range", n)
		}
		return int(n - 1), true, nil
	}
	if id, ok := e.(*sql.Ident); ok && len(id.Parts) == 1 {
		for i, entry := range out.entries {
			if entry.name == id.Parts[0] {
				return i, true, nil
			}
		}
	}
	rendered := e.String()
	for i, it := range items {
		if !it.Star && it.Expr.String() == rendered {
			return i, true, nil
		}
	}
	return 0, false, nil
}

// planTableRef plans a FROM-clause relation.
func (a *Analyzer) planTableRef(ref sql.TableRef) (Node, *scope, error) {
	switch t := ref.(type) {
	case *sql.TableName:
		return a.planTableName(t)
	case *sql.Subquery:
		inner, innerScope, err := a.planQuery(t.Query)
		if err != nil {
			return nil, nil, err
		}
		sc := &scope{}
		for _, e := range innerScope.entries {
			sc.entries = append(sc.entries, scopeEntry{qualifier: t.Alias, name: e.name, typ: e.typ})
		}
		return inner, sc, nil
	case *sql.Join:
		return a.planJoin(t)
	default:
		return nil, nil, fmt.Errorf("planner: unsupported relation %T", ref)
	}
}

func (a *Analyzer) planTableName(t *sql.TableName) (Node, *scope, error) {
	catalog, schema, table := "", "", ""
	switch len(t.Parts) {
	case 1:
		catalog, schema, table = a.Session.Catalog, a.Session.Schema, t.Parts[0]
	case 2:
		catalog, schema, table = a.Session.Catalog, t.Parts[0], t.Parts[1]
	case 3:
		catalog, schema, table = t.Parts[0], t.Parts[1], t.Parts[2]
	}
	if catalog == "" || schema == "" {
		return nil, nil, fmt.Errorf("planner: table %s needs a catalog and schema (no session defaults set)", t)
	}
	conn, err := a.Catalogs.Get(catalog)
	if err != nil {
		return nil, nil, err
	}
	version := connector.TableVersion(conn, schema, table)
	ts, handle, err := conn.Metadata().GetTable(schema, table)
	if err != nil {
		return nil, nil, err
	}
	qualifier := t.Alias
	if qualifier == "" {
		qualifier = table
	}
	cols := make([]Column, len(ts.Columns))
	ordinals := make([]int, len(ts.Columns))
	sc := &scope{}
	for i, c := range ts.Columns {
		cols[i] = Column{Name: c.Name, Type: c.Type}
		ordinals[i] = i
		sc.entries = append(sc.entries, scopeEntry{qualifier: qualifier, name: c.Name, typ: c.Type})
	}
	return &TableScan{
		Catalog:        catalog,
		Schema:         schema,
		Table:          table,
		Handle:         handle,
		Cols:           cols,
		ColumnOrdinals: ordinals,
		Version:        version,
	}, sc, nil
}

func (a *Analyzer) planJoin(j *sql.Join) (Node, *scope, error) {
	left, leftScope, err := a.planTableRef(j.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rightScope, err := a.planTableRef(j.Right)
	if err != nil {
		return nil, nil, err
	}
	combined := &scope{entries: append(append([]scopeEntry{}, leftScope.entries...), rightScope.entries...)}

	kind := JoinInner
	switch j.Type {
	case sql.LeftJoin:
		kind = JoinLeft
	case sql.CrossJoin:
		kind = JoinCross
	}

	node := &Join{Kind: kind, Left: left, Right: right}
	if j.On != nil {
		on, err := a.analyzeExpr(j.On, combined, false)
		if err != nil {
			return nil, nil, err
		}
		planned, err := buildJoinWithCondition(node, on, len(leftScope.entries))
		if err != nil {
			return nil, nil, err
		}
		return planned, combined, nil
	}
	return node, combined, nil
}

// buildJoinWithCondition splits a join condition into equi-keys and a
// residual. Equi-key sides that are expressions (e.g. dereferences of
// nested structs, t.base.driver_uuid = d.driver_uuid) are computed in
// projections below the join so the hash join can still key on them; a
// trimming projection above restores the original output channels.
func buildJoinWithCondition(node *Join, on expr.RowExpression, leftN int) (Node, error) {
	rightN := len(node.Right.Outputs())
	var extraLeft, extraRight []expr.RowExpression
	var rest []expr.RowExpression
	for _, c := range expr.Conjuncts(on) {
		call, ok := c.(*expr.Call)
		if !ok || call.Handle.Name != "eq" {
			rest = append(rest, c)
			continue
		}
		side := func(e expr.RowExpression) int { // 0 = left-only, 1 = right-only, -1 = mixed/constant
			chans := expr.ReferencedChannels(e)
			if len(chans) == 0 {
				return -1
			}
			left, right := false, false
			for _, ch := range chans {
				if ch < leftN {
					left = true
				} else {
					right = true
				}
			}
			switch {
			case left && !right:
				return 0
			case right && !left:
				return 1
			}
			return -1
		}
		a0, a1 := call.Args[0], call.Args[1]
		s0, s1 := side(a0), side(a1)
		var leftExpr, rightExpr expr.RowExpression
		switch {
		case s0 == 0 && s1 == 1:
			leftExpr, rightExpr = a0, a1
		case s0 == 1 && s1 == 0:
			leftExpr, rightExpr = a1, a0
		default:
			rest = append(rest, c)
			continue
		}
		// Remap the right-side expression to right-child channels.
		remap := map[int]int{}
		for _, ch := range expr.ReferencedChannels(rightExpr) {
			remap[ch] = ch - leftN
		}
		rightExpr = expr.RemapChannels(rightExpr, remap)

		if v, isVar := leftExpr.(*expr.Variable); isVar {
			node.LeftKeys = append(node.LeftKeys, v.Channel)
		} else {
			node.LeftKeys = append(node.LeftKeys, leftN+len(extraLeft))
			extraLeft = append(extraLeft, leftExpr)
		}
		if v, isVar := rightExpr.(*expr.Variable); isVar {
			node.RightKeys = append(node.RightKeys, v.Channel)
		} else {
			node.RightKeys = append(node.RightKeys, rightN+len(extraRight))
			extraRight = append(extraRight, rightExpr)
		}
	}
	if node.Kind == JoinCross && len(node.LeftKeys) > 0 {
		node.Kind = JoinInner
	}
	if len(extraLeft) == 0 && len(extraRight) == 0 {
		if len(rest) > 0 {
			node.Residual = expr.And(rest...)
		}
		return node, nil
	}
	// Wrap children with projections computing the extra key channels.
	node.Left = projectWithExtras(node.Left, extraLeft)
	node.Right = projectWithExtras(node.Right, extraRight)
	el := len(extraLeft)
	// Residual channels: left side unchanged; right side shifts by el.
	if len(rest) > 0 {
		remap := map[int]int{}
		for _, c := range rest {
			for _, ch := range expr.ReferencedChannels(c) {
				if ch < leftN {
					remap[ch] = ch
				} else {
					remap[ch] = ch + el
				}
			}
		}
		shifted := make([]expr.RowExpression, len(rest))
		for i, c := range rest {
			shifted[i] = expr.RemapChannels(c, remap)
		}
		node.Residual = expr.And(shifted...)
	}
	// Trim the extra key channels back out so the combined scope holds.
	outs := node.Outputs()
	exprs := make([]expr.RowExpression, 0, leftN+rightN)
	names := make([]string, 0, leftN+rightN)
	for ch := 0; ch < leftN; ch++ {
		exprs = append(exprs, expr.NewVariable(outs[ch].Name, ch, outs[ch].Type))
		names = append(names, outs[ch].Name)
	}
	for ch := 0; ch < rightN; ch++ {
		src := leftN + el + ch
		exprs = append(exprs, expr.NewVariable(outs[src].Name, src, outs[src].Type))
		names = append(names, outs[src].Name)
	}
	return &Project{Child: node, Exprs: exprs, Names: names}, nil
}

func projectWithExtras(child Node, extras []expr.RowExpression) Node {
	if len(extras) == 0 {
		return child
	}
	outs := child.Outputs()
	exprs := make([]expr.RowExpression, 0, len(outs)+len(extras))
	names := make([]string, 0, len(outs)+len(extras))
	for ch, c := range outs {
		exprs = append(exprs, expr.NewVariable(c.Name, ch, c.Type))
		names = append(names, c.Name)
	}
	for i, e := range extras {
		exprs = append(exprs, e)
		names = append(names, fmt.Sprintf("$joinkey%d", i))
	}
	return &Project{Child: child, Exprs: exprs, Names: names}
}

// analyzeSelectItems expands * and analyzes each projection.
func (a *Analyzer) analyzeSelectItems(items []sql.SelectItem, sc *scope) ([]expr.RowExpression, []string, error) {
	var exprs []expr.RowExpression
	var names []string
	for _, it := range items {
		if it.Star {
			for ch, e := range sc.entries {
				exprs = append(exprs, expr.NewVariable(e.name, ch, e.typ))
				names = append(names, e.name)
			}
			continue
		}
		e, err := a.analyzeExpr(it.Expr, sc, false)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		names = append(names, selectItemName(it))
	}
	return exprs, names, nil
}

func selectItemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if id, ok := it.Expr.(*sql.Ident); ok {
		return id.Parts[len(id.Parts)-1]
	}
	return strings.ToLower(it.Expr.String())
}
