package planner

import (
	"errors"
	"fmt"

	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// The binary form of a plan, in which fragments travel to workers. Each node
// goes by a tag, then its fields in declaration order; expressions, values
// and types are expr's and types' forms, and a scan's connector handle is its
// connector's (connector.Encoder out, connector.Decoder back, found by the
// scan's catalog). Every form has one encoding, so bytes that decode encode
// back to themselves.

const (
	nodeValues byte = iota + 1
	nodeTableScan
	nodeFilter
	nodeProject
	nodeAggregate
	nodeJoin
	nodeGeoJoin
	nodeSort
	nodeLimit
	nodeOutput
	nodeRemoteSource
	nodeUnion
)

// maxWireDepth bounds how deeply a decoded plan may nest.
const maxWireDepth = 512

// Encode writes a plan in its binary form. A node type, boxed value or
// handle without a binary form is a bug in whatever built the plan (a hybrid
// scan, say, is expanded before any plan ships), and panics.
func Encode(n Node) []byte { return appendNode(nil, n) }

// Decode reads what Encode wrote. catalogs resolves each scan's catalog to
// the connector that reads its handle. Bytes Encode did not write are an
// error, never a panic.
func Decode(b []byte, catalogs *connector.Registry) (Node, error) {
	d := decoder{r: frame.NewReader(b), catalogs: catalogs}
	n := d.node(0)
	if err := d.r.Close(); err != nil {
		return nil, fmt.Errorf("planner: decoding a plan: %w", err)
	}
	return n, nil
}

func appendNode(dst []byte, n Node) []byte {
	switch t := n.(type) {
	case *Values:
		dst = appendColumns(append(dst, nodeValues), t.Cols)
		dst = frame.AppendUvarint(dst, uint64(len(t.Rows)))
		for _, row := range t.Rows {
			dst = frame.AppendUvarint(dst, uint64(len(row)))
			for _, v := range row {
				dst = expr.AppendValue(dst, v)
			}
		}
		return dst
	case *TableScan:
		dst = frame.AppendString(append(dst, nodeTableScan), t.Catalog)
		dst = frame.AppendString(frame.AppendString(dst, t.Schema), t.Table)
		switch h := t.Handle.(type) {
		case nil:
			dst = frame.AppendBool(dst, false)
		case connector.Encoder:
			dst = h.AppendWire(frame.AppendBool(dst, true))
		default:
			panic(fmt.Sprintf("planner: table handle %T has no binary form", h))
		}
		dst = frame.AppendInts(appendColumns(dst, t.Cols), t.ColumnOrdinals)
		return frame.AppendString(dst, t.PushedAgg)
	case *Filter:
		return expr.AppendExpr(appendNode(append(dst, nodeFilter), t.Child), t.Predicate)
	case *Project:
		dst = appendNode(append(dst, nodeProject), t.Child)
		dst = frame.AppendUvarint(dst, uint64(len(t.Exprs)))
		for _, e := range t.Exprs {
			dst = expr.AppendExpr(dst, e)
		}
		return frame.AppendStrings(dst, t.Names)
	case *Aggregate:
		dst = frame.AppendInts(appendNode(append(dst, nodeAggregate), t.Child), t.GroupBy)
		dst = frame.AppendUvarint(dst, uint64(len(t.Aggs)))
		for _, a := range t.Aggs {
			dst = frame.AppendInts(frame.AppendString(dst, a.FuncName), a.Args)
			dst = frame.AppendUvarint(dst, uint64(len(a.ArgTypes)))
			for _, at := range a.ArgTypes {
				dst = types.AppendType(dst, at)
			}
			dst = frame.AppendString(frame.AppendBool(dst, a.Distinct), a.OutputName)
			dst = types.AppendType(types.AppendType(dst, a.InterType), a.FinalType)
		}
		return frame.AppendVarint(dst, int64(t.Step))
	case *Join:
		dst = frame.AppendVarint(append(dst, nodeJoin), int64(t.Kind))
		dst = appendNode(appendNode(dst, t.Left), t.Right)
		dst = frame.AppendInts(frame.AppendInts(dst, t.LeftKeys), t.RightKeys)
		return expr.AppendExpr(dst, t.Residual)
	case *GeoJoin:
		dst = appendNode(appendNode(append(dst, nodeGeoJoin), t.Left), t.Right)
		dst = expr.AppendExpr(expr.AppendExpr(dst, t.Lng), t.Lat)
		return frame.AppendVarint(dst, int64(t.ShapeChan))
	case *Sort:
		dst = appendNode(append(dst, nodeSort), t.Child)
		dst = frame.AppendUvarint(dst, uint64(len(t.Keys)))
		for _, k := range t.Keys {
			dst = frame.AppendBool(frame.AppendVarint(dst, int64(k.Channel)), k.Desc)
		}
		return dst
	case *Limit:
		return frame.AppendVarint(appendNode(append(dst, nodeLimit), t.Child), t.N)
	case *Output:
		return frame.AppendStrings(appendNode(append(dst, nodeOutput), t.Child), t.Names)
	case *RemoteSource:
		dst = frame.AppendVarint(append(dst, nodeRemoteSource), int64(t.FragmentID))
		return appendColumns(dst, t.Cols)
	case *Union:
		dst = frame.AppendUvarint(append(dst, nodeUnion), uint64(len(t.Sources)))
		for _, src := range t.Sources {
			dst = appendNode(dst, src)
		}
		return dst
	}
	panic(fmt.Sprintf("planner: plan node %T has no binary form", n))
}

func appendColumns(dst []byte, cols []Column) []byte {
	dst = frame.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = types.AppendType(frame.AppendString(dst, c.Name), c.Type)
	}
	return dst
}

type decoder struct {
	r        *frame.Reader
	catalogs *connector.Registry
}

func (d *decoder) node(depth int) Node {
	r := d.r
	if depth > maxWireDepth {
		r.Fail(fmt.Errorf("planner: a plan nested deeper than %d", maxWireDepth))
		return nil
	}
	child := func() Node { return d.node(depth + 1) }
	switch tag := r.Byte(); tag {
	case nodeValues:
		v := &Values{Cols: d.columns()}
		if n := r.Count(); n > 0 {
			v.Rows = make([][]any, n)
			for i := range v.Rows {
				if m := r.Count(); m > 0 {
					v.Rows[i] = make([]any, m)
					for j := range v.Rows[i] {
						v.Rows[i][j] = expr.ReadValue(r)
					}
				}
			}
		}
		return v
	case nodeTableScan:
		t := &TableScan{Catalog: r.Str(), Schema: r.Str(), Table: r.Str(), Version: -1}
		if r.Bool() {
			t.Handle = d.handle(t.Catalog)
		}
		t.Cols = d.columns()
		t.ColumnOrdinals = r.Ints()
		t.PushedAgg = r.Str()
		return t
	case nodeFilter:
		f := &Filter{Child: child()}
		if f.Predicate = expr.ReadExpr(r); f.Predicate == nil {
			r.Fail(errors.New("planner: a filter without a predicate"))
		}
		return f
	case nodeProject:
		p := &Project{Child: child()}
		if n := r.Count(); n > 0 {
			p.Exprs = make([]expr.RowExpression, n)
			for i := range p.Exprs {
				if p.Exprs[i] = expr.ReadExpr(r); p.Exprs[i] == nil {
					r.Fail(errors.New("planner: a projection without an expression"))
				}
			}
		}
		if p.Names = r.Strs(); len(p.Names) != len(p.Exprs) {
			r.Fail(fmt.Errorf("planner: %d names for %d projections", len(p.Names), len(p.Exprs)))
		}
		return p
	case nodeAggregate:
		a := &Aggregate{Child: child(), GroupBy: r.Ints()}
		if n := r.Count(); n > 0 {
			a.Aggs = make([]Aggregation, n)
			for i := range a.Aggs {
				agg := &a.Aggs[i]
				agg.FuncName, agg.Args = r.Str(), r.Ints()
				if m := r.Count(); m > 0 {
					agg.ArgTypes = make([]*types.Type, m)
					for j := range agg.ArgTypes {
						agg.ArgTypes[j] = types.ReadType(r)
					}
				}
				agg.Distinct, agg.OutputName = r.Bool(), r.Str()
				agg.InterType, agg.FinalType = types.ReadType(r), types.ReadType(r)
			}
		}
		if a.Step = AggStep(r.Varint()); a.Step < AggSingle || a.Step > AggFinal {
			r.Fail(fmt.Errorf("planner: aggregation step %d", a.Step))
		}
		return a
	case nodeJoin:
		j := &Join{Kind: JoinKind(r.Varint())}
		if j.Kind < JoinInner || j.Kind > JoinCross {
			r.Fail(fmt.Errorf("planner: join kind %d", j.Kind))
		}
		j.Left, j.Right = child(), child()
		j.LeftKeys, j.RightKeys = r.Ints(), r.Ints()
		if len(j.LeftKeys) != len(j.RightKeys) {
			r.Fail(fmt.Errorf("planner: %d left keys for %d right keys", len(j.LeftKeys), len(j.RightKeys)))
		}
		j.Residual = expr.ReadExpr(r)
		return j
	case nodeGeoJoin:
		g := &GeoJoin{Left: child(), Right: child(), Lng: expr.ReadExpr(r), Lat: expr.ReadExpr(r), ShapeChan: r.Int()}
		if g.Lng == nil || g.Lat == nil {
			r.Fail(errors.New("planner: a spatial join without its point"))
		}
		return g
	case nodeSort:
		s := &Sort{Child: child()}
		if n := r.Count(); n > 0 {
			s.Keys = make([]SortKey, n)
			for i := range s.Keys {
				s.Keys[i] = SortKey{Channel: r.Int(), Desc: r.Bool()}
			}
		}
		return s
	case nodeLimit:
		return &Limit{Child: child(), N: r.Varint()}
	case nodeOutput:
		return &Output{Child: child(), Names: r.Strs()}
	case nodeRemoteSource:
		return &RemoteSource{FragmentID: r.Int(), Cols: d.columns()}
	case nodeUnion:
		n := r.Count()
		if n == 0 {
			r.Fail(errors.New("planner: a union of nothing"))
			return nil
		}
		u := &Union{Sources: make([]Node, n)}
		for i := range u.Sources {
			u.Sources[i] = child()
		}
		return u
	default:
		r.Fail(fmt.Errorf("planner: unknown plan node tag %d", tag))
		return nil
	}
}

// handle reads a scan's handle with its catalog's connector.
func (d *decoder) handle(catalog string) connector.TableHandle {
	if d.r.Err() != nil {
		return nil
	}
	conn, err := d.catalogs.Get(catalog)
	if err != nil {
		d.r.Fail(fmt.Errorf("planner: decoding a scan: %w", err))
		return nil
	}
	dec, ok := conn.(connector.Decoder)
	if !ok {
		d.r.Fail(fmt.Errorf("planner: catalog %q has no binary form for its handles", catalog))
		return nil
	}
	return dec.DecodeHandle(d.r)
}

func (d *decoder) columns() []Column {
	n := d.r.Count()
	if n == 0 {
		return nil
	}
	cols := make([]Column, n)
	for i := range cols {
		cols[i] = Column{Name: d.r.Str(), Type: types.ReadType(d.r)}
	}
	return cols
}
