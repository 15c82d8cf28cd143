package hive

import (
	"strings"

	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/types"
)

// Pushdown capabilities (§IV.A). Predicates arrive as RowExpressions whose
// Variable channels are table ordinals. The connector absorbs:
//   - conjuncts on partition keys            → partition pruning
//   - simple comparisons on primitive leaves → reader-level predicates
//     (stats + dictionary row-group skipping, §V.F/§V.G)
// Everything else is returned as residual for the engine.

var (
	_ connector.FilterPushdown           = (*Connector)(nil)
	_ connector.ProjectionPushdown       = (*Connector)(nil)
	_ connector.LimitPushdown            = (*Connector)(nil)
	_ connector.NestedProjectionPushdown = (*Connector)(nil)
)

// PushNestedPaths implements nested column pruning (§V.D): the scan narrows
// to dotted struct paths, so the reader only decodes the required leaves.
func (c *Connector) PushNestedPaths(handle connector.TableHandle, paths []string) (connector.TableHandle, []connector.Column, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, nil, false
	}
	t, err := c.ms.GetTable(h.Schema, h.Table)
	if err != nil {
		return handle, nil, false
	}
	outCols := make([]connector.Column, len(paths))
	for i, p := range paths {
		typ := typeAtPath(t, p)
		if typ == nil {
			return handle, nil, false
		}
		outCols[i] = connector.Column{Name: p, Type: typ}
	}
	nh := *h
	nh.NestedPaths = append([]string(nil), paths...)
	nh.Projection = nil
	return &nh, outCols, true
}

// typeAtPath resolves a dotted path against the metastore schema
// (struct-field steps only); partition keys resolve as varchar.
func typeAtPath(t *metastore.Table, path string) *types.Type {
	parts := strings.Split(path, ".")
	for _, k := range t.PartitionKeys {
		if k == parts[0] {
			if len(parts) > 1 {
				return nil
			}
			return types.Varchar
		}
	}
	var cur *types.Type
	for _, col := range t.Columns {
		if col.Name == parts[0] {
			cur = col.Type
			break
		}
	}
	if cur == nil {
		return nil
	}
	for _, part := range parts[1:] {
		if cur.Kind != types.KindRow {
			return nil
		}
		idx := cur.FieldIndex(part)
		if idx < 0 {
			return nil
		}
		cur = cur.Fields[idx].Type
	}
	return cur
}

// PushFilter implements connector.FilterPushdown.
func (c *Connector) PushFilter(handle connector.TableHandle, predicate expr.RowExpression, schema *connector.TableSchema) (connector.TableHandle, expr.RowExpression, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, predicate, false
	}
	t, err := c.ms.GetTable(h.Schema, h.Table)
	if err != nil {
		return handle, predicate, false
	}
	partitionKeys := map[string]bool{}
	for _, k := range t.PartitionKeys {
		partitionKeys[k] = true
	}
	// Build the file schema to validate leaf paths.
	names := make([]string, len(t.Columns))
	colTypes := make([]*types.Type, len(t.Columns))
	for i, col := range t.Columns {
		names[i] = col.Name
		colTypes[i] = col.Type
	}
	fileSchema, err := parquet.NewSchema(names, colTypes)
	if err != nil {
		return handle, predicate, false
	}
	all := allColumns(t)

	nh := *h
	var residual []expr.RowExpression
	pushedAny := false
	for _, conj := range splitAnd(predicate) {
		pred, ok := toColumnPredicate(conj, all)
		if !ok {
			residual = append(residual, conj)
			continue
		}
		if partitionKeys[pred.Path] {
			nh.PartitionPreds = append(nh.PartitionPreds, pred)
			pushedAny = true
			continue
		}
		// Data predicates need the new reader (the legacy reader cannot
		// evaluate predicates while scanning, §V.C).
		node := fileSchema.Resolve(pred.Path)
		if node == nil || c.opts.UseLegacyReader {
			residual = append(residual, conj)
			continue
		}
		nh.DataPreds = append(nh.DataPreds, pred)
		pushedAny = true
	}
	if !pushedAny {
		return handle, predicate, false
	}
	if len(residual) == 0 {
		return &nh, nil, true
	}
	return &nh, expr.And(residual...), true
}

// PushProjection implements connector.ProjectionPushdown.
func (c *Connector) PushProjection(handle connector.TableHandle, columns []int) (connector.TableHandle, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, false
	}
	nh := *h
	if h.NestedPaths != nil {
		// The scan's columns are already dotted paths: keep the selected ones.
		nh.NestedPaths = make([]string, len(columns))
		for i, col := range columns {
			nh.NestedPaths[i] = h.NestedPaths[col]
		}
		return &nh, true
	}
	nh.Projection = append([]int(nil), columns...)
	return &nh, true
}

// PushLimit implements connector.LimitPushdown: per-split, not guaranteed.
func (c *Connector) PushLimit(handle connector.TableHandle, limit int64) (connector.TableHandle, bool, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, false, false
	}
	// Only safe when the split applies every pushed predicate itself.
	nh := *h
	if nh.Limit < 0 || limit < nh.Limit {
		nh.Limit = limit
	}
	return &nh, false, true
}

func splitAnd(e expr.RowExpression) []expr.RowExpression {
	if sf, ok := e.(*expr.SpecialForm); ok && sf.Form == expr.FormAnd {
		var out []expr.RowExpression
		for _, a := range sf.Args {
			out = append(out, splitAnd(a)...)
		}
		return out
	}
	return []expr.RowExpression{e}
}

// leafPath extracts a dotted column path from a Variable or a
// Dereference chain rooted at a Variable; returns "" otherwise.
func leafPath(e expr.RowExpression, cols []connector.Column) string {
	switch t := e.(type) {
	case *expr.Variable:
		if t.Channel < 0 || t.Channel >= len(cols) {
			return ""
		}
		return cols[t.Channel].Name
	case *expr.SpecialForm:
		if t.Form != expr.FormDereference {
			return ""
		}
		base := leafPath(t.Args[0], cols)
		if base == "" {
			return ""
		}
		field, ok := t.Args[1].(*expr.Constant)
		if !ok {
			return ""
		}
		name, ok := field.Value.(string)
		if !ok {
			return ""
		}
		return base + "." + name
	}
	return ""
}

var opByName = map[string]parquet.Op{
	"eq": parquet.OpEq, "neq": parquet.OpNeq,
	"lt": parquet.OpLt, "lte": parquet.OpLte,
	"gt": parquet.OpGt, "gte": parquet.OpGte,
}

var flippedOp = map[parquet.Op]parquet.Op{
	parquet.OpEq: parquet.OpEq, parquet.OpNeq: parquet.OpNeq,
	parquet.OpLt: parquet.OpGt, parquet.OpLte: parquet.OpGte,
	parquet.OpGt: parquet.OpLt, parquet.OpGte: parquet.OpLte,
}

// toColumnPredicate converts a conjunct to a simple column predicate:
// col <op> const, const <op> col, or col IN (consts).
func toColumnPredicate(e expr.RowExpression, cols []connector.Column) (parquet.ColumnPredicate, bool) {
	switch t := e.(type) {
	case *expr.Call:
		op, ok := opByName[t.Handle.Name]
		if !ok || len(t.Args) != 2 {
			return parquet.ColumnPredicate{}, false
		}
		if path := leafPath(t.Args[0], cols); path != "" {
			if c, ok := constValue(t.Args[1]); ok {
				return parquet.ColumnPredicate{Path: path, Op: op, Values: []any{c}}, true
			}
		}
		if path := leafPath(t.Args[1], cols); path != "" {
			if c, ok := constValue(t.Args[0]); ok {
				return parquet.ColumnPredicate{Path: path, Op: flippedOp[op], Values: []any{c}}, true
			}
		}
	case *expr.SpecialForm:
		if t.Form == expr.FormIn {
			path := leafPath(t.Args[0], cols)
			if path == "" {
				return parquet.ColumnPredicate{}, false
			}
			var values []any
			for _, arg := range t.Args[1:] {
				c, ok := constValue(arg)
				if !ok {
					return parquet.ColumnPredicate{}, false
				}
				values = append(values, c)
			}
			return parquet.ColumnPredicate{Path: path, Op: parquet.OpIn, Values: values}, true
		}
		if t.Form == expr.FormBetween {
			// col BETWEEN a AND b is not expressible as one ColumnPredicate;
			// the optimizer will have already split it if rewritten, so skip.
			return parquet.ColumnPredicate{}, false
		}
	}
	return parquet.ColumnPredicate{}, false
}

func constValue(e expr.RowExpression) (any, bool) {
	c, ok := e.(*expr.Constant)
	if !ok || c.Value == nil {
		return nil, false
	}
	switch c.Value.(type) {
	case int64, float64, string, bool:
		return c.Value, true
	}
	return nil, false
}
