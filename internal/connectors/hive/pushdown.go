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
//   - a grouped or global count/sum/min/max  → answered per split, from the
//     memo of the file's partial or the footer statistics (aggregate.go,
//     §IV.B)
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
	if !ok || h.Aggs != nil {
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
func (c *Connector) PushFilter(handle connector.TableHandle, predicate expr.RowExpression) (connector.TableHandle, expr.RowExpression, bool) {
	h, ok := handle.(*TableHandle)
	if !ok || h.Aggs != nil {
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
	byOrdinal := connector.ColumnByOrdinal(allColumns(t))

	nh := *h
	nh.PartitionPreds = append([]expr.Comparison(nil), h.PartitionPreds...)
	nh.DataPreds = append([]expr.Comparison(nil), h.DataPreds...)
	columnOf := func(e expr.RowExpression) (string, bool) { return leafPath(e, byOrdinal) }
	residual, pushed := connector.PushComparisons(predicate, columnOf, func(cmp expr.Comparison) bool {
		switch {
		case partitionKeys[cmp.Column]:
			nh.PartitionPreds = append(nh.PartitionPreds, cmp)
		case fileSchema.Resolve(cmp.Column) != nil && !c.opts.UseLegacyReader:
			// Data predicates need the new reader (the legacy reader cannot
			// evaluate predicates while scanning, §V.C).
			nh.DataPreds = append(nh.DataPreds, cmp)
		default:
			return false
		}
		return true
	})
	return &nh, residual, pushed
}

// PushProjection implements connector.ProjectionPushdown.
func (c *Connector) PushProjection(handle connector.TableHandle, columns []int) (connector.TableHandle, bool) {
	h, ok := handle.(*TableHandle)
	if !ok || h.Aggs != nil {
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
	if !ok || h.Aggs != nil {
		return handle, false, false
	}
	// Only safe when the split applies every pushed predicate itself.
	nh := *h
	if nh.Limit < 0 || limit < nh.Limit {
		nh.Limit = limit
	}
	return &nh, false, true
}

// leafPath is the hive column resolver: a dereference chain over a column
// (as root resolves it) is a dotted column path.
func leafPath(e expr.RowExpression, root func(expr.RowExpression) (string, bool)) (string, bool) {
	sf, ok := e.(*expr.SpecialForm)
	if !ok || sf.Form != expr.FormDereference {
		return root(e)
	}
	base, ok := leafPath(sf.Args[0], root)
	if !ok {
		return "", false
	}
	field, ok := sf.Args[1].(*expr.Constant)
	if !ok {
		return "", false
	}
	name, ok := field.Value.(string)
	return base + "." + name, ok
}
