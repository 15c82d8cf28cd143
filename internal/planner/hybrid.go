package planner

import (
	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// Hybrid batch + real-time expansion: a scan of a hybrid table becomes
// union(historical scan, real-time scan) with the watermark predicate on
// each side (historical: time < boundary, real-time: time >= boundary), so
// one query transparently spans Parquet history and seconds-old druid
// segments. When the query's own time predicate proves a side empty (e.g.
// ts >= boundary), that side is pruned and no union is planned. The pass
// runs before the connector pushdown phases, so the boundary and user
// predicates are then pushed into each side's connector.

// expandHybridScans walks the plan top-down, matching Filter(TableScan)
// before the bare scan so the filter's time bounds can prune sides.
func (o *Optimizer) expandHybridScans(n Node) Node {
	if f, ok := n.(*Filter); ok {
		if scan, isScan := f.Child.(*TableScan); isScan {
			if spec, isHybrid := o.hybridSpec(scan); isHybrid {
				return o.expandHybrid(scan, spec, f.Predicate)
			}
		}
	}
	if scan, isScan := n.(*TableScan); isScan {
		if spec, isHybrid := o.hybridSpec(scan); isHybrid {
			return o.expandHybrid(scan, spec, nil)
		}
	}
	return mapChildren(n, o.expandHybridScans)
}

func (o *Optimizer) hybridSpec(scan *TableScan) (connector.HybridSpec, bool) {
	conn, err := o.Catalogs.Get(scan.Catalog)
	if err != nil {
		return connector.HybridSpec{}, false
	}
	ht, ok := conn.(connector.HybridTable)
	if !ok {
		return connector.HybridSpec{}, false
	}
	return ht.HybridSpec(scan.Handle)
}

// expandHybrid replaces one hybrid scan (plus the predicate directly above
// it, if any) with the side scans.
func (o *Optimizer) expandHybrid(scan *TableScan, spec connector.HybridSpec, pred expr.RowExpression) Node {
	orig := func() Node {
		if pred == nil {
			return scan
		}
		return &Filter{Child: scan, Predicate: pred}
	}
	timeCh := -1
	for i, c := range scan.Cols {
		if c.Name == spec.TimeColumn {
			timeCh = i
			break
		}
	}
	var lo, hi *int64
	if pred != nil && timeCh >= 0 {
		lo, hi = timeInterval(pred, timeCh)
	}
	needHist := lo == nil || *lo < spec.Boundary
	needRT := hi == nil || *hi > spec.Boundary
	var sources []Node
	// A side whose bound the query's own predicate already proves gets no
	// boundary conjunct: the store would evaluate the same comparison twice
	// per row.
	if needHist {
		op := "lt"
		if hi != nil && *hi <= spec.Boundary {
			op = ""
		}
		side, err := o.buildSideScan(scan, spec.Historical, spec.TimeColumn, pred, op, spec.Boundary)
		if err != nil {
			return orig()
		}
		sources = append(sources, side)
	}
	if needRT {
		op := "gte"
		if lo != nil && *lo >= spec.Boundary {
			op = ""
		}
		side, err := o.buildSideScan(scan, spec.Realtime, spec.TimeColumn, pred, op, spec.Boundary)
		if err != nil {
			return orig()
		}
		sources = append(sources, side)
	}
	switch len(sources) {
	case 0:
		// The time predicate is unsatisfiable; keep SQL semantics with an
		// empty relation of the scan's shape.
		return &Values{Cols: scan.Cols}
	case 1:
		return sources[0]
	default:
		return &Union{Sources: sources}
	}
}

// buildSideScan plans one side: a scan of the part's table producing the
// hybrid scan's columns, filtered by the boundary predicate (boundaryOp is
// "lt" for the historical side, "gte" for real-time, "" when pred implies
// it) plus the user predicate. If the hybrid scan does not output the time
// column, it is scanned additionally and projected away after the filter.
func (o *Optimizer) buildSideScan(scan *TableScan, part connector.HybridPart, timeCol string, pred expr.RowExpression, boundaryOp string, boundary int64) (Node, error) {
	conn, err := o.Catalogs.Get(part.Catalog)
	if err != nil {
		return nil, err
	}
	version := connector.TableVersion(conn, part.Schema, part.Table)
	schema, handle, err := conn.Metadata().GetTable(part.Schema, part.Table)
	if err != nil {
		return nil, err
	}
	side := &TableScan{
		Catalog: part.Catalog,
		Schema:  part.Schema,
		Table:   part.Table,
		Handle:  handle,
		Version: version,
	}
	timeCh := -1
	for i, c := range scan.Cols {
		ord := schema.ColumnIndex(c.Name)
		if ord < 0 {
			return nil, errMissingColumn(part, c.Name)
		}
		side.Cols = append(side.Cols, c)
		side.ColumnOrdinals = append(side.ColumnOrdinals, ord)
		if c.Name == timeCol {
			timeCh = i
		}
	}
	appended := false
	if timeCh < 0 {
		ord := schema.ColumnIndex(timeCol)
		if ord < 0 {
			return nil, errMissingColumn(part, timeCol)
		}
		side.Cols = append(side.Cols, Column{Name: timeCol, Type: schema.Columns[ord].Type})
		side.ColumnOrdinals = append(side.ColumnOrdinals, ord)
		timeCh = len(side.Cols) - 1
		appended = true
	}
	full := pred
	if boundaryOp != "" {
		full = expr.MustCall(boundaryOp,
			expr.NewVariable(timeCol, timeCh, side.Cols[timeCh].Type),
			expr.NewConstant(boundary, types.Bigint))
		if pred != nil {
			full = expr.And(full, pred)
		}
	}
	var out Node = &Filter{Child: side, Predicate: full}
	if appended {
		// Restore the hybrid scan's output shape.
		proj := &Project{Child: out}
		for i, c := range scan.Cols {
			proj.Exprs = append(proj.Exprs, expr.NewVariable(c.Name, i, c.Type))
			proj.Names = append(proj.Names, c.Name)
		}
		out = proj
	}
	return out, nil
}

func errMissingColumn(part connector.HybridPart, col string) error {
	return &missingColumnError{part: part, col: col}
}

type missingColumnError struct {
	part connector.HybridPart
	col  string
}

func (e *missingColumnError) Error() string {
	return "hybrid side " + e.part.Catalog + "." + e.part.Schema + "." + e.part.Table +
		" is missing column " + e.col
}

// timeInterval derives [lo, hi) bounds on the time channel from the
// predicate's conjuncts (col-vs-int64-constant comparisons only). Either
// bound is nil when unconstrained.
func timeInterval(pred expr.RowExpression, timeCh int) (lo, hi *int64) {
	raiseLo := func(v int64) {
		if lo == nil || v > *lo {
			lo = &v
		}
	}
	lowerHi := func(v int64) {
		if hi == nil || v < *hi {
			hi = &v
		}
	}
	onTime := func(e expr.RowExpression) (string, bool) { // the one column, so no name
		v, ok := e.(*expr.Variable)
		return "", ok && v.Channel == timeCh
	}
	for _, conj := range expr.Conjuncts(pred) {
		cmp, ok := expr.LowerComparison(conj, onTime)
		if !ok || len(cmp.Values) != 1 {
			continue
		}
		cv, ok := cmp.Values[0].(int64)
		if !ok {
			continue
		}
		switch cmp.Op {
		case expr.OpEq:
			raiseLo(cv)
			lowerHi(cv + 1)
		case expr.OpLt:
			lowerHi(cv)
		case expr.OpLte:
			lowerHi(cv + 1)
		case expr.OpGt:
			raiseLo(cv + 1)
		case expr.OpGte:
			raiseLo(cv)
		}
	}
	return lo, hi
}
