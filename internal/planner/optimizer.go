package planner

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// Optimizer runs rule-based optimization passes over a logical plan:
// predicate normalization, connector pushdowns (§IV.A: projection, predicate,
// limit; §IV.B: aggregation), column pruning, and the geospatial QuadTree
// rewrite (§VI Fig 13).
type Optimizer struct {
	Catalogs *connector.Registry
	Session  *Session
}

// Optimize rewrites the plan. It never fails the query: rules that cannot
// apply simply leave the tree unchanged.
func (o *Optimizer) Optimize(root Node) Node {
	// Phase 0: constant folding (rule-based, no statistics — §XII.A).
	root = rewrite(root, foldConstants)
	// Phase 1: move predicates to where they can be absorbed, until no rule
	// fires. A rule that does not apply returns the node it was given, so a
	// round is judged by identity and not by rendering the plan: this runs on
	// every statement, including every result-cache hit.
	for i := 0; i < 5; i++ {
		fired := false
		for _, rule := range []func(Node) Node{mergeFilters, pushFilterThroughProject, pushFilterThroughJoin} {
			root = rewrite(root, func(n Node) Node {
				out := rule(n)
				fired = fired || out != n
				return out
			})
		}
		if !fired {
			break
		}
	}
	// Phase 1b: expand hybrid scans into union(historical, real-time) before
	// the per-connector pushdown phases, so the boundary and user predicates
	// are pushed into each side's connector.
	root = o.expandHybridScans(root)
	// Phase 2: spatial join rewrite (needs predicates in join residuals).
	if o.Session.Property("geospatial_optimization", "true") == "true" {
		root = rewrite(root, rewriteGeoJoin)
	}
	// Phase 3: predicate pushdown into connectors.
	root = rewrite(root, o.pushFilterIntoScan)
	// Phase 3b: dereference pushdown (nested column pruning, §V.D): subfield
	// reads move down to the scans, after the filters the connectors absorb
	// have left the plan and before pruning decides which channels live.
	root = o.pushDereferencesKeepWidth(root)
	// Phase 4: column pruning (projection pushdown).
	root = pruneRoot(root, o.Catalogs)
	root = rewrite(root, removeIdentityProject)
	// Phase 5: aggregation pushdown — in partial form below a join and through
	// a union to each of its sides, then into connectors.
	root = rewrite(root, pushAggregationThroughJoin)
	root = rewrite(root, pushAggregationThroughUnion)
	root = rewrite(root, o.pushAggregationIntoScan)
	root = rewrite(root, removeIdentityProject)
	// Phase 6: limit pushdown into connectors.
	root = rewrite(root, o.pushLimitIntoScan)
	return root
}

// rewrite applies fn bottom-up over the tree.
func rewrite(n Node, fn func(Node) Node) Node {
	return fn(mapChildren(n, func(c Node) Node { return rewrite(c, fn) }))
}

// mergeFilters collapses Filter(Filter(x)) into one conjunction.
func mergeFilters(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	inner, ok := f.Child.(*Filter)
	if !ok {
		return n
	}
	return &Filter{Child: inner.Child, Predicate: expr.And(inner.Predicate, f.Predicate)}
}

// pushFilterThroughProject moves Filter(Project(x)) to Project(Filter(x)) by
// inlining projected expressions into the predicate.
func pushFilterThroughProject(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	p, ok := f.Child.(*Project)
	if !ok {
		return n
	}
	inlined := expr.Rewrite(f.Predicate, func(e expr.RowExpression) expr.RowExpression {
		if v, ok := e.(*expr.Variable); ok {
			return p.Exprs[v.Channel]
		}
		return e
	})
	return &Project{Child: &Filter{Child: p.Child, Predicate: inlined}, Exprs: p.Exprs, Names: p.Names}
}

// pushFilterThroughJoin distributes conjuncts of Filter(Join) to the join
// side they reference, or into the join residual.
func pushFilterThroughJoin(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	j, ok := f.Child.(*Join)
	if !ok {
		return n
	}
	leftN := len(j.Left.Outputs())
	totalN := leftN + len(j.Right.Outputs())
	var leftPreds, rightPreds, joinPreds []expr.RowExpression
	for _, c := range expr.Conjuncts(f.Predicate) {
		chans := expr.ReferencedChannels(c)
		onlyLeft, onlyRight := true, true
		for _, ch := range chans {
			if ch >= leftN {
				onlyLeft = false
			}
			if ch < leftN {
				onlyRight = false
			}
			if ch >= totalN {
				onlyLeft, onlyRight = false, false
			}
		}
		switch {
		case onlyLeft && j.Kind != JoinLeft: // pushing below a LEFT join's left side is fine, actually
			leftPreds = append(leftPreds, c)
		case onlyLeft:
			leftPreds = append(leftPreds, c)
		case onlyRight && j.Kind == JoinInner || onlyRight && j.Kind == JoinCross:
			remap := map[int]int{}
			for _, ch := range chans {
				remap[ch] = ch - leftN
			}
			rightPreds = append(rightPreds, expr.RemapChannels(c, remap))
		default:
			joinPreds = append(joinPreds, c)
		}
	}
	if j.Kind == JoinLeft && len(leftPreds) == 0 && len(rightPreds) == 0 {
		return n // nothing moved: a LEFT join keeps mixed conjuncts above it
	}
	nj := *j
	if len(leftPreds) > 0 {
		nj.Left = &Filter{Child: j.Left, Predicate: expr.And(leftPreds...)}
	}
	if len(rightPreds) > 0 {
		nj.Right = &Filter{Child: j.Right, Predicate: expr.And(rightPreds...)}
	}
	if len(joinPreds) > 0 {
		if nj.Kind == JoinInner || nj.Kind == JoinCross {
			// Mixed-side predicates become part of the join; expression
			// keys (e.g. nested dereferences) get computed-key projections.
			all := joinPreds
			if nj.Residual != nil {
				all = append([]expr.RowExpression{nj.Residual}, all...)
			}
			nj.Residual = nil
			planned, err := buildJoinWithCondition(&nj, expr.And(all...), leftN)
			if err != nil {
				nj.Residual = expr.And(all...)
				return &nj
			}
			return planned
		}
		return &Filter{Child: &nj, Predicate: expr.And(joinPreds...)}
	}
	return &nj
}

// pushFilterIntoScan hands predicates to connectors that implement
// FilterPushdown (§IV.A).
func (o *Optimizer) pushFilterIntoScan(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	scan, ok := f.Child.(*TableScan)
	if !ok {
		return n
	}
	conn, err := o.Catalogs.Get(scan.Catalog)
	if err != nil {
		return n
	}
	fp, ok := conn.(connector.FilterPushdown)
	if !ok {
		return n
	}
	// Channels in the predicate refer to scan outputs; convert to table
	// ordinals for the connector.
	remap := map[int]int{}
	for out, ord := range scan.ColumnOrdinals {
		remap[out] = ord
	}
	chans := expr.ReferencedChannels(f.Predicate)
	for _, ch := range chans {
		if _, ok := remap[ch]; !ok {
			return n
		}
	}
	tablePred := expr.RemapChannels(f.Predicate, remap)
	newHandle, residual, pushed := fp.PushFilter(scan.Handle, tablePred)
	if !pushed {
		return n
	}
	ns := *scan
	ns.Handle = newHandle
	if residual == nil {
		return &ns
	}
	// Residual comes back in table ordinals; map back to scan channels.
	back := map[int]int{}
	for out, ord := range scan.ColumnOrdinals {
		back[ord] = out
	}
	return &Filter{Child: &ns, Predicate: expr.RemapChannels(residual, back)}
}

// removeIdentityProject drops projections that pass all channels through,
// after folding a projection of plain channels (the reorder dereference
// pushdown leaves above a join whose left side grew) into the one above it.
// A folded variable keeps its name unless that was only the column's; then it
// is the inner variable, which says what it reads ($joinkey0 := base.city_id).
func removeIdentityProject(n Node) Node {
	p, ok := n.(*Project)
	if !ok {
		return n
	}
	if inner, ok := p.Child.(*Project); ok {
		if forwarded := inner.forwardedChannels(); forwarded != nil {
			folded := &Project{Child: inner.Child, Names: p.Names, Exprs: make([]expr.RowExpression, len(p.Exprs))}
			for i, e := range p.Exprs {
				folded.Exprs[i] = expr.Rewrite(e, func(x expr.RowExpression) expr.RowExpression {
					if v, ok := x.(*expr.Variable); ok && v.Name == inner.Names[v.Channel] {
						return inner.Exprs[v.Channel]
					} else if ok {
						return expr.NewVariable(v.Name, forwarded[v.Channel], v.Type)
					}
					return x
				})
			}
			p, n = folded, folded
		}
	}
	if !p.IsIdentity() {
		return n
	}
	childOut := p.Child.Outputs()
	for i := range childOut {
		if childOut[i].Name != p.Names[i] {
			return n // keeps renames
		}
	}
	return p.Child
}

// column is a variable reading cols[ch], named after it.
func column(cols []Column, ch int) *expr.Variable {
	return expr.NewVariable(cols[ch].Name, ch, cols[ch].Type)
}

// cannotFail reports whether e evaluates without error on every row: it reads
// columns, constants and fields, and its arithmetic never divides integers.
func cannotFail(e expr.RowExpression) bool {
	ok := true
	expr.Walk(e, func(x expr.RowExpression) bool {
		switch t := x.(type) {
		case *expr.Call:
			name := t.Handle.Name
			ok = slices.Contains([]string{"add", "subtract", "multiply", "negate"}, name) ||
				(name == "divide" || name == "modulus") && t.Ret.Equals(types.Double)
		case *expr.SpecialForm:
			ok = t.Form == expr.FormDereference
		}
		return ok
	})
	return ok
}

// pushAggregationThroughJoin splits an aggregate over an inner equi-join (or a
// projection of one) whose arguments all read one side (the left when none
// do) into a FINAL above the join over a PARTIAL below it, grouped by that
// side's join and group keys (Presto's PushPartialAggregationThroughJoin). A
// partial row joins the rows each of its input rows would have, so the FINAL
// merges k copies of its state where the original merged k copies of a row.
// What moves below also runs on rows the join drops: it must not be able to
// fail (cannotFail). Over a scan, the partial runs on the workers.
func pushAggregationThroughJoin(n Node) Node {
	agg, ok := n.(*Aggregate)
	if !ok || agg.Step != AggSingle || hasDistinct(agg) {
		return n
	}
	child, exprs := agg.Child, []expr.RowExpression(nil)
	if p, isProj := child.(*Project); isProj {
		child, exprs = p.Child, p.Exprs
	}
	j, ok := child.(*Join)
	if !ok || j.Kind != JoinInner || j.Residual != nil || len(j.LeftKeys) == 0 {
		return n
	}
	outs, leftN := j.Outputs(), len(j.Left.Outputs())
	if exprs == nil { // the aggregate reads the join's columns
		for i := range outs {
			exprs = append(exprs, column(outs, i))
		}
	}
	sides := func(ch int) int { // bit 1: reads the left side, bit 2: the right
		if !cannotFail(exprs[ch]) {
			return 3 // stays above the join, like what reads both sides
		}
		s := 0
		for _, c := range expr.ReferencedChannels(exprs[ch]) {
			s |= 1 + min(c/leftN, 1)
		}
		return s
	}
	side := 0
	for _, a := range agg.Aggs {
		for _, ch := range a.Args {
			side |= sides(ch)
		}
	}
	if side == 3 || slices.ContainsFunc(agg.GroupBy, func(ch int) bool { return sides(ch) == 3 }) {
		return n
	}
	side = max(side, 1) // no argument: the left side
	src, keys, off := j.Left, j.LeftKeys, 0
	if side == 2 {
		src, keys, off = j.Right, j.RightKeys, leftN
	}

	// Below the join: a PARTIAL over the side's keys and arguments, each once.
	shifted := func(by int) map[int]int { // every join output channel, moved by by
		m := make(map[int]int, len(outs))
		for c := range outs {
			m[c] = c + by
		}
		return m
	}
	srcCols, aggIn, toSrc := src.Outputs(), agg.Child.Outputs(), shifted(-off)
	below := &Project{Child: src}
	add := func(e expr.RowExpression, name string) int {
		e = expr.RemapChannels(e, toSrc)
		if i := slices.IndexFunc(below.Exprs, func(have expr.RowExpression) bool { return reflect.DeepEqual(have, e) }); i >= 0 {
			return i
		}
		below.Exprs, below.Names = append(below.Exprs, e), append(below.Names, name)
		return len(below.Exprs) - 1
	}
	partial := &Aggregate{Child: below, Aggs: make([]Aggregation, len(agg.Aggs)), Step: AggPartial}
	for _, k := range keys { // the join keys are the partial's first keys
		partial.GroupBy = append(partial.GroupBy, add(column(outs, off+k), srcCols[k].Name))
	}
	pushedKey := map[int]int{} // agg group key → partial key position
	for g, ch := range agg.GroupBy {
		if sides(ch) == side {
			pushedKey[g] = len(partial.GroupBy)
			partial.GroupBy = append(partial.GroupBy, add(exprs[ch], aggIn[ch].Name))
		}
	}
	for i, a := range agg.Aggs {
		a.Args = append([]int(nil), a.Args...)
		for k, ch := range a.Args {
			a.Args[k] = add(exprs[ch], aggIn[ch].Name)
		}
		partial.Aggs[i] = a
	}

	// The partial's columns start at channel at; the other side's move by shift.
	joinKeys := identityChannels(len(keys))
	nj := &Join{Kind: JoinInner, Left: partial, Right: j.Right, LeftKeys: joinKeys, RightKeys: j.RightKeys}
	at, shift := 0, len(partial.GroupBy)+len(agg.Aggs)-leftN
	if side == 2 {
		nj = &Join{Kind: JoinInner, Left: j.Left, Right: partial, LeftKeys: j.LeftKeys, RightKeys: joinKeys}
		at, shift = leftN, 0
	}
	njOuts, other := nj.Outputs(), shifted(shift)
	above := &Project{Child: nj}
	for g, ch := range agg.GroupBy {
		e := expr.RemapChannels(exprs[ch], other)
		if pos, ok := pushedKey[g]; ok { // named t.g, not g: EXPLAIN tells the two apart
			e = expr.NewVariable(exprs[ch].String(), at+pos, exprs[ch].TypeOf())
		}
		above.Exprs, above.Names = append(above.Exprs, e), append(above.Names, aggIn[ch].Name)
	}
	for i, a := range agg.Aggs {
		above.Exprs, above.Names = append(above.Exprs, column(njOuts, at+len(partial.GroupBy)+i)), append(above.Names, a.OutputName)
	}
	return FinalOver(above, agg)
}

// pushAggregationThroughUnion splits an aggregate over a union (a hybrid
// table's two sides) — directly, or through a projection of plain columns —
// into a FINAL over the union of one PARTIAL per side, the projection
// re-applied under each. Each side then aggregates where its rows are: in
// the source fragment the fragmenter cuts around it, or inside the connector
// when pushAggregationIntoScan can hand the partial over (Fig 2), and only
// partial rows reach the final. DISTINCT aggregates do not merge and stay
// whole.
func pushAggregationThroughUnion(n Node) Node {
	agg, ok := n.(*Aggregate)
	if !ok || agg.Step != AggSingle || hasDistinct(agg) {
		return n
	}
	child, via := agg.Child, (*Project)(nil)
	if p, isProj := child.(*Project); isProj && p.forwardedChannels() != nil {
		child, via = p.Child, p
	}
	u, ok := child.(*Union)
	if !ok {
		return n
	}
	sides := make([]Node, len(u.Sources))
	for i, src := range u.Sources {
		if via != nil {
			src = &Project{Child: src, Exprs: via.Exprs, Names: via.Names}
		}
		sides[i] = &Aggregate{Child: src, GroupBy: agg.GroupBy, Aggs: agg.Aggs, Step: AggPartial}
	}
	return FinalOver(&Union{Sources: sides}, agg)
}

// pushAggregationIntoScan absorbs Aggregate(TableScan) into connectors that
// implement AggregationPushdown (§IV.B): Druid/Pinot-style stores execute
// the aggregation natively, hive answers it from its footers, and only
// aggregated rows stream into the engine. A PARTIAL (one side of a split
// union) is absorbed too when every aggregate's intermediate type is its
// final type — count, sum, min, max: the connector runs the aggregation it
// always ran and the FINAL above merges it. avg, whose intermediate is a
// (sum, count) pair, stays an engine-side partial over the scan. A connector
// that answers per split gets a SINGLE aggregate as its PARTIAL, under the
// FINAL that merges the splits.
func (o *Optimizer) pushAggregationIntoScan(n Node) Node {
	agg, ok := n.(*Aggregate)
	if !ok || agg.Step == AggFinal {
		return n
	}
	// Look through a pure column-selection projection (the pre-aggregation
	// projection frequently just reorders scan outputs).
	child := agg.Child
	var viaProject map[int]int
	if p, isProj := child.(*Project); isProj {
		if viaProject = p.forwardedChannels(); viaProject != nil {
			child = p.Child
		}
	}
	scan, ok := child.(*TableScan)
	if !ok {
		return n
	}
	mapChannel := func(ch int) int {
		if viaProject != nil {
			ch = viaProject[ch]
		}
		return scan.ColumnOrdinals[ch]
	}
	conn, err := o.Catalogs.Get(scan.Catalog)
	if err != nil {
		return n
	}
	ap, ok := conn.(connector.AggregationPushdown)
	if !ok {
		return n
	}
	mergeable := true // each partial row is a valid input of the FINAL
	for _, a := range agg.Aggs {
		mergeable = mergeable && a.InterType.Equals(a.FinalType)
	}
	var specs []connector.AggregateSpec
	for _, a := range agg.Aggs {
		if a.Distinct || (agg.Step == AggPartial && !mergeable) {
			return n
		}
		spec := connector.AggregateSpec{Function: a.FuncName, ArgColumn: -1, OutputName: a.OutputName, OutputType: a.FinalType}
		switch a.FuncName {
		case "count":
			if len(a.Args) == 1 {
				spec.ArgColumn = mapChannel(a.Args[0])
			} else if len(a.Args) > 1 {
				return n
			}
		case "sum", "min", "max", "avg":
			if len(a.Args) != 1 {
				return n
			}
			spec.ArgColumn = mapChannel(a.Args[0])
		default:
			return n
		}
		specs = append(specs, spec)
	}
	groupOrds := make([]int, len(agg.GroupBy))
	for i, ch := range agg.GroupBy {
		groupOrds[i] = mapChannel(ch)
	}
	newHandle, perSplit, pushed := ap.PushAggregation(scan.Handle, specs, groupOrds)
	if !pushed || (perSplit && !mergeable) {
		return n
	}
	// Scan output becomes group keys then aggregate results.
	outs := agg.Outputs()
	ns := *scan
	ns.Handle = newHandle
	ns.Cols = outs
	ns.ColumnOrdinals = make([]int, len(outs))
	for i := range outs {
		ns.ColumnOrdinals[i] = i
	}
	descs := make([]string, len(agg.Aggs))
	for i := range agg.Aggs {
		descs[i] = agg.Aggs[i].describe(agg.Child)
	}
	ns.PushedAgg = strings.Join(descs, ", ")
	if perSplit && agg.Step == AggSingle {
		return FinalOver(&ns, agg)
	}
	return &ns
}

// pushLimitIntoScan hands LIMIT to connectors implementing LimitPushdown,
// possibly through pass-through projections.
func (o *Optimizer) pushLimitIntoScan(n Node) Node {
	l, ok := n.(*Limit)
	if !ok {
		return n
	}
	// Walk through projections that don't change cardinality.
	child := l.Child
	var projs []*Project
	for {
		if p, ok := child.(*Project); ok {
			projs = append(projs, p)
			child = p.Child
			continue
		}
		break
	}
	scan, ok := child.(*TableScan)
	if !ok {
		return n
	}
	conn, err := o.Catalogs.Get(scan.Catalog)
	if err != nil {
		return n
	}
	lp, ok := conn.(connector.LimitPushdown)
	if !ok {
		return n
	}
	newHandle, guaranteed, pushed := lp.PushLimit(scan.Handle, l.N)
	if !pushed {
		return n
	}
	ns := *scan
	ns.Handle = newHandle
	var rebuilt Node = &ns
	for i := len(projs) - 1; i >= 0; i-- {
		rebuilt = &Project{Child: rebuilt, Exprs: projs[i].Exprs, Names: projs[i].Names}
	}
	if guaranteed {
		return rebuilt
	}
	return &Limit{Child: rebuilt, N: l.N}
}

// ---------------------------------------------------------------------------
// Geospatial rewrite (§VI Fig 13): a join whose condition is
// st_contains(shape, st_point(lng, lat)) becomes a GeoJoin that builds a
// QuadTree over the shapes on the fly (build_geo_index) and probes it,
// instead of evaluating st_contains for every pair.

func rewriteGeoJoin(n Node) Node {
	j, ok := n.(*Join)
	if !ok || j.Residual == nil || len(j.LeftKeys) > 0 {
		return n
	}
	if j.Kind != JoinInner && j.Kind != JoinCross {
		return n
	}
	leftN := len(j.Left.Outputs())
	conjuncts := expr.Conjuncts(j.Residual)
	for i, c := range conjuncts {
		call, ok := c.(*expr.Call)
		if !ok || call.Handle.Name != "st_contains" || len(call.Args) != 2 {
			continue
		}
		shapeVar, ok := call.Args[0].(*expr.Variable)
		if !ok {
			continue
		}
		point, ok := call.Args[1].(*expr.Call)
		if !ok || point.Handle.Name != "st_point" || len(point.Args) != 2 {
			continue
		}
		lng, lat := point.Args[0], point.Args[1]
		// Shape must come from one side and the point from the other.
		lngChans := expr.ReferencedChannels(lng)
		latChans := expr.ReferencedChannels(lat)
		pointChans := append(append([]int{}, lngChans...), latChans...)
		if shapeVar.Channel >= leftN && allBelow(pointChans, leftN) {
			// point from left, shape from right: canonical orientation.
			rest := append(append([]expr.RowExpression{}, conjuncts[:i]...), conjuncts[i+1:]...)
			geo := &GeoJoin{
				Left:      j.Left,
				Right:     j.Right,
				Lng:       lng,
				Lat:       lat,
				ShapeChan: shapeVar.Channel - leftN,
			}
			if len(rest) == 0 {
				return geo
			}
			return &Filter{Child: geo, Predicate: expr.And(rest...)}
		}
		if shapeVar.Channel < leftN && allAtLeast(pointChans, leftN) {
			// shape from left, point from right: swap sides, then restore
			// the original channel order with a projection.
			remapPoint := map[int]int{}
			for _, ch := range pointChans {
				remapPoint[ch] = ch - leftN
			}
			rest := append(append([]expr.RowExpression{}, conjuncts[:i]...), conjuncts[i+1:]...)
			rightN := len(j.Right.Outputs())
			geo := &GeoJoin{
				Left:      j.Right,
				Right:     j.Left,
				Lng:       expr.RemapChannels(lng, remapPoint),
				Lat:       expr.RemapChannels(lat, remapPoint),
				ShapeChan: shapeVar.Channel,
			}
			// geo outputs: right-side (rightN) then left-side (leftN);
			// rebuild original order left++right.
			outs := geo.Outputs()
			exprs := make([]expr.RowExpression, leftN+rightN)
			names := make([]string, leftN+rightN)
			for ch := 0; ch < leftN; ch++ {
				exprs[ch] = expr.NewVariable(outs[rightN+ch].Name, rightN+ch, outs[rightN+ch].Type)
				names[ch] = outs[rightN+ch].Name
			}
			for ch := 0; ch < rightN; ch++ {
				exprs[leftN+ch] = expr.NewVariable(outs[ch].Name, ch, outs[ch].Type)
				names[leftN+ch] = outs[ch].Name
			}
			var out Node = &Project{Child: geo, Exprs: exprs, Names: names}
			if len(rest) > 0 {
				out = &Filter{Child: out, Predicate: expr.And(rest...)}
			}
			return out
		}
	}
	return n
}

func allBelow(chans []int, n int) bool {
	for _, c := range chans {
		if c >= n {
			return false
		}
	}
	return true
}

func allAtLeast(chans []int, n int) bool {
	for _, c := range chans {
		if c < n {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Column pruning (projection pushdown, §IV.A / §V.D nested column pruning at
// the plan level). Walks top-down computing required channels, narrowing
// Projects, Aggregates, Joins and TableScans; scans hand the projection to
// connectors implementing ProjectionPushdown.

func pruneRoot(root Node, catalogs *connector.Registry) Node {
	out, ok := root.(*Output)
	if !ok {
		all := identityChannels(len(root.Outputs()))
		pruned, _ := pruneNode(root, all, catalogs)
		return pruned
	}
	all := identityChannels(len(out.Child.Outputs()))
	child, mapping := pruneNode(out.Child, all, catalogs)
	_ = mapping
	return &Output{Child: child, Names: out.Names}
}

func identityChannels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pruneNode narrows n to the required channels (sorted, deduped). It returns
// the new node and a mapping old-channel → new-channel (-1 if dropped). The
// new node's outputs contain at least the required channels.
func pruneNode(n Node, required []int, catalogs *connector.Registry) (Node, []int) {
	width := len(n.Outputs())
	required = normalizeChannels(required, width)
	switch t := n.(type) {
	case *TableScan:
		if len(required) == width {
			return t, identityChannels(width)
		}
		ns := *t
		ns.Cols = make([]Column, len(required))
		ns.ColumnOrdinals = make([]int, len(required))
		mapping := fill(width, -1)
		for newCh, oldCh := range required {
			ns.Cols[newCh] = t.Cols[oldCh]
			ns.ColumnOrdinals[newCh] = t.ColumnOrdinals[oldCh]
			mapping[oldCh] = newCh
		}
		// Hand the projection to the connector when supported.
		if conn, err := catalogs.Get(t.Catalog); err == nil {
			if pp, ok := conn.(connector.ProjectionPushdown); ok {
				if nh, pushed := pp.PushProjection(ns.Handle, ns.ColumnOrdinals); pushed {
					ns.Handle = nh
					ns.ColumnOrdinals = identityChannels(len(required))
				}
			}
		}
		return &ns, mapping
	case *Values:
		if len(required) == width {
			return t, identityChannels(width)
		}
		nv := &Values{}
		mapping := fill(width, -1)
		for newCh, oldCh := range required {
			nv.Cols = append(nv.Cols, t.Cols[oldCh])
			mapping[oldCh] = newCh
		}
		for _, row := range t.Rows {
			nr := make([]any, len(required))
			for newCh, oldCh := range required {
				nr[newCh] = row[oldCh]
			}
			nv.Rows = append(nv.Rows, nr)
		}
		return nv, mapping
	case *RemoteSource:
		return t, identityChannels(width)
	case *Project:
		childNeeds := map[int]bool{}
		for _, ch := range required {
			for _, c := range expr.ReferencedChannels(t.Exprs[ch]) {
				childNeeds[c] = true
			}
		}
		newChild, childMap := pruneNode(t.Child, keys(childNeeds), catalogs)
		np := &Project{Child: newChild}
		mapping := fill(width, -1)
		for newCh, oldCh := range required {
			np.Exprs = append(np.Exprs, remapExpr(t.Exprs[oldCh], childMap))
			np.Names = append(np.Names, t.Names[oldCh])
			mapping[oldCh] = newCh
		}
		return np, mapping
	case *Filter:
		childNeeds := map[int]bool{}
		for _, ch := range required {
			childNeeds[ch] = true
		}
		for _, c := range expr.ReferencedChannels(t.Predicate) {
			childNeeds[c] = true
		}
		newChild, childMap := pruneNode(t.Child, keys(childNeeds), catalogs)
		nf := &Filter{Child: newChild, Predicate: remapExpr(t.Predicate, childMap)}
		return nf, childMap
	case *Limit:
		newChild, childMap := pruneNode(t.Child, required, catalogs)
		return &Limit{Child: newChild, N: t.N}, childMap
	case *Sort:
		childNeeds := map[int]bool{}
		for _, ch := range required {
			childNeeds[ch] = true
		}
		for _, k := range t.Keys {
			childNeeds[k.Channel] = true
		}
		newChild, childMap := pruneNode(t.Child, keys(childNeeds), catalogs)
		ns := &Sort{Child: newChild}
		for _, k := range t.Keys {
			ns.Keys = append(ns.Keys, SortKey{Channel: childMap[k.Channel], Desc: k.Desc})
		}
		return ns, childMap
	case *Aggregate:
		// Group keys always stay (they define grouping); unused aggregates
		// are dropped.
		groups := len(t.GroupBy)
		neededAggs := map[int]bool{}
		for _, ch := range required {
			if ch >= groups {
				neededAggs[ch-groups] = true
			}
		}
		childNeeds := map[int]bool{}
		for _, ch := range t.GroupBy {
			childNeeds[ch] = true
		}
		for i, a := range t.Aggs {
			if !neededAggs[i] {
				continue
			}
			for _, ch := range a.Args {
				childNeeds[ch] = true
			}
		}
		newChild, childMap := pruneNode(t.Child, keys(childNeeds), catalogs)
		na := &Aggregate{Child: newChild, Step: t.Step}
		for _, ch := range t.GroupBy {
			na.GroupBy = append(na.GroupBy, childMap[ch])
		}
		mapping := fill(width, -1)
		for i := 0; i < groups; i++ {
			mapping[i] = i
		}
		for i, a := range t.Aggs {
			if !neededAggs[i] {
				continue
			}
			na2 := a
			na2.Args = make([]int, len(a.Args))
			for j, ch := range a.Args {
				na2.Args[j] = childMap[ch]
			}
			mapping[groups+i] = groups + len(na.Aggs)
			na.Aggs = append(na.Aggs, na2)
		}
		return na, mapping
	case *Join:
		leftN := len(t.Left.Outputs())
		leftNeeds, rightNeeds := map[int]bool{}, map[int]bool{}
		for _, ch := range required {
			if ch < leftN {
				leftNeeds[ch] = true
			} else {
				rightNeeds[ch-leftN] = true
			}
		}
		for _, k := range t.LeftKeys {
			leftNeeds[k] = true
		}
		for _, k := range t.RightKeys {
			rightNeeds[k] = true
		}
		if t.Residual != nil {
			for _, ch := range expr.ReferencedChannels(t.Residual) {
				if ch < leftN {
					leftNeeds[ch] = true
				} else {
					rightNeeds[ch-leftN] = true
				}
			}
		}
		newLeft, leftMap := pruneNode(t.Left, keys(leftNeeds), catalogs)
		newRight, rightMap := pruneNode(t.Right, keys(rightNeeds), catalogs)
		nj := &Join{Kind: t.Kind, Left: newLeft, Right: newRight}
		for i := range t.LeftKeys {
			nj.LeftKeys = append(nj.LeftKeys, leftMap[t.LeftKeys[i]])
			nj.RightKeys = append(nj.RightKeys, rightMap[t.RightKeys[i]])
		}
		newLeftN := len(newLeft.Outputs())
		mapping := fill(width, -1)
		for old, nw := range leftMap {
			if nw >= 0 {
				mapping[old] = nw
			}
		}
		for old, nw := range rightMap {
			if nw >= 0 {
				mapping[leftN+old] = newLeftN + nw
			}
		}
		if t.Residual != nil {
			nj.Residual = remapExpr(t.Residual, mapping)
		}
		return nj, mapping
	case *GeoJoin:
		leftN := len(t.Left.Outputs())
		leftNeeds, rightNeeds := map[int]bool{}, map[int]bool{}
		for _, ch := range required {
			if ch < leftN {
				leftNeeds[ch] = true
			} else {
				rightNeeds[ch-leftN] = true
			}
		}
		for _, ch := range expr.ReferencedChannels(t.Lng) {
			leftNeeds[ch] = true
		}
		for _, ch := range expr.ReferencedChannels(t.Lat) {
			leftNeeds[ch] = true
		}
		rightNeeds[t.ShapeChan] = true
		newLeft, leftMap := pruneNode(t.Left, keys(leftNeeds), catalogs)
		newRight, rightMap := pruneNode(t.Right, keys(rightNeeds), catalogs)
		ng := &GeoJoin{
			Left:      newLeft,
			Right:     newRight,
			Lng:       remapExpr(t.Lng, leftMap),
			Lat:       remapExpr(t.Lat, leftMap),
			ShapeChan: rightMap[t.ShapeChan],
		}
		newLeftN := len(newLeft.Outputs())
		mapping := fill(width, -1)
		for old, nw := range leftMap {
			if nw >= 0 {
				mapping[old] = nw
			}
		}
		for old, nw := range rightMap {
			if nw >= 0 {
				mapping[leftN+old] = newLeftN + nw
			}
		}
		return ng, mapping
	case *Union:
		// Prune each source with the same required set; sides may prune
		// asymmetrically (e.g. a residual Filter survives on one side only),
		// so realize exactly the required channels on every source with a
		// Project built from that source's own mapping.
		nu := &Union{Sources: make([]Node, len(t.Sources))}
		for i, src := range t.Sources {
			newSrc, srcMap := pruneNode(src, required, catalogs)
			exact := len(newSrc.Outputs()) == len(required)
			if exact {
				for newCh, oldCh := range required {
					if srcMap[oldCh] != newCh {
						exact = false
						break
					}
				}
			}
			if exact {
				nu.Sources[i] = newSrc
				continue
			}
			srcOut := newSrc.Outputs()
			proj := &Project{Child: newSrc}
			for _, oldCh := range required {
				ch := srcMap[oldCh]
				proj.Exprs = append(proj.Exprs, expr.NewVariable(srcOut[ch].Name, ch, srcOut[ch].Type))
				proj.Names = append(proj.Names, srcOut[ch].Name)
			}
			nu.Sources[i] = proj
		}
		mapping := fill(width, -1)
		for newCh, oldCh := range required {
			mapping[oldCh] = newCh
		}
		return nu, mapping
	default:
		return n, identityChannels(width)
	}
}

func normalizeChannels(chans []int, width int) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range chans {
		if c >= 0 && c < width && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sortInts(out)
	return out
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func remapExpr(e expr.RowExpression, mapping []int) expr.RowExpression {
	m := map[int]int{}
	for old, nw := range mapping {
		if nw >= 0 {
			m[old] = nw
		}
	}
	return expr.RemapChannels(e, m)
}

// ---------------------------------------------------------------------------

// CheckTypes sanity-checks plan invariants (used by tests): every expression
// references valid child channels.
func CheckTypes(n Node) error {
	for _, c := range n.Children() {
		if err := CheckTypes(c); err != nil {
			return err
		}
	}
	validate := func(e expr.RowExpression, width int, where string) error {
		for _, ch := range expr.ReferencedChannels(e) {
			if ch < 0 || ch >= width {
				return fmt.Errorf("planner: %s references channel %d of width %d", where, ch, width)
			}
		}
		return nil
	}
	switch t := n.(type) {
	case *Filter:
		if t.Predicate.TypeOf().Kind != types.KindBoolean && t.Predicate.TypeOf().Kind != types.KindUnknown {
			return fmt.Errorf("planner: filter predicate has type %s", t.Predicate.TypeOf())
		}
		return validate(t.Predicate, len(t.Child.Outputs()), "filter")
	case *Project:
		for _, e := range t.Exprs {
			if err := validate(e, len(t.Child.Outputs()), "project"); err != nil {
				return err
			}
		}
	case *Join:
		if t.Residual != nil {
			return validate(t.Residual, len(t.Left.Outputs())+len(t.Right.Outputs()), "join residual")
		}
	case *Union:
		width := len(t.Sources[0].Outputs())
		for i, src := range t.Sources[1:] {
			if len(src.Outputs()) != width {
				return fmt.Errorf("planner: union source %d has width %d, want %d", i+1, len(src.Outputs()), width)
			}
		}
	}
	return nil
}

// foldConstants evaluates constant subexpressions at plan time (the engine
// keeps a rule-based optimizer per §XII.A; folding needs no statistics).
// Expressions that would error at runtime (e.g. division by zero) are left
// in place so the error surfaces during execution, matching SQL semantics.
func foldConstants(n Node) Node {
	fold := func(e expr.RowExpression) expr.RowExpression {
		return expr.Rewrite(e, func(x expr.RowExpression) expr.RowExpression {
			switch t := x.(type) {
			case *expr.Call:
				if !allConstants(t.Args) {
					return x
				}
				v, err := expr.EvalRowValue(t, nil)
				if err != nil {
					return x
				}
				return expr.NewConstant(v, t.Ret)
			case *expr.SpecialForm:
				// DEREFERENCE args include the field-name constant; folding
				// would corrupt it. AND/OR/NOT/IN/BETWEEN/IF over constants
				// fold fine.
				if t.Form == expr.FormDereference || !allConstants(t.Args) {
					return x
				}
				v, err := expr.EvalRowValue(t, nil)
				if err != nil {
					return x
				}
				return expr.NewConstant(v, t.Ret)
			}
			return x
		})
	}
	switch t := n.(type) {
	case *Filter:
		return &Filter{Child: t.Child, Predicate: fold(t.Predicate)}
	case *Project:
		exprs := make([]expr.RowExpression, len(t.Exprs))
		for i, e := range t.Exprs {
			exprs[i] = fold(e)
		}
		return &Project{Child: t.Child, Exprs: exprs, Names: t.Names}
	default:
		return n
	}
}

func allConstants(args []expr.RowExpression) bool {
	for _, a := range args {
		if _, ok := a.(*expr.Constant); !ok {
			return false
		}
	}
	return true
}
