// Package planner turns the SQL AST into a typed logical plan, optimizes it
// (rule-based optimizer with connector pushdowns, §IV), and fragments it into
// stages for distributed execution (§III Fig 1: logical plan → physical plan
// → fragments).
package planner

import (
	"fmt"
	"strings"

	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// Column is one output channel of a plan node.
type Column struct {
	Name string
	Type *types.Type
}

// Node is a logical (and, post-fragmentation, physical) plan node. Every
// node type has a binary form (Encode, Decode in wire.go), in which fragments
// ship to workers.
type Node interface {
	// Outputs lists the node's output channels in order.
	Outputs() []Column
	// Children returns input nodes (empty for leaves).
	Children() []Node
	// Describe renders a one-line summary for EXPLAIN.
	Describe() string
}

// ---------------------------------------------------------------------------

// Values is an inline relation (SELECT without FROM, constant folding).
type Values struct {
	Cols []Column
	Rows [][]any
}

func (v *Values) Outputs() []Column { return v.Cols }
func (v *Values) Children() []Node  { return nil }
func (v *Values) Describe() string  { return fmt.Sprintf("Values[%d rows]", len(v.Rows)) }

// TableScan reads a table through a connector. Pushdown rules replace the
// Handle, which carries and describes what the connector absorbed, and keep
// Cols and ColumnOrdinals (the executor's column mapping) in step.
type TableScan struct {
	Catalog string
	Schema  string
	Table   string
	Handle  connector.TableHandle
	// Cols are the scan's current output columns.
	Cols []Column
	// ColumnOrdinals maps each output channel to the connector's column
	// ordinal (post any projection pushdown these are indexes into the
	// pushed projection).
	ColumnOrdinals []int
	// PushedAgg describes an aggregation the connector absorbed; filters,
	// projections and limits it absorbed are in the handle's description.
	PushedAgg string
	// Version is the table's snapshot version (connector.TableVersion),
	// read before planning first read the table's metadata, so a table that
	// changes while it is planned keys the plan by its older version; -1
	// when it has none. It is planning state: neither the plan's binary
	// form nor its text carries it, and a decoded scan has -1.
	Version int64
}

func (t *TableScan) Outputs() []Column { return t.Cols }
func (t *TableScan) Children() []Node  { return nil }

func (t *TableScan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TableScan[%s.%s.%s", t.Catalog, t.Schema, t.Table)
	if t.Handle != nil {
		// The handle's description carries connector-specific pushed state
		// (filters, partitions, projections, limits).
		fmt.Fprintf(&sb, ", %s", t.Handle.Description())
	}
	if t.PushedAgg != "" {
		fmt.Fprintf(&sb, ", aggregation=%s", t.PushedAgg)
	}
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	fmt.Fprintf(&sb, "] => [%s]", strings.Join(names, ", "))
	return sb.String()
}

// Filter keeps rows where Predicate is true.
type Filter struct {
	Child     Node
	Predicate expr.RowExpression
}

func (f *Filter) Outputs() []Column { return f.Child.Outputs() }
func (f *Filter) Children() []Node  { return []Node{f.Child} }
func (f *Filter) Describe() string  { return "Filter[" + f.Predicate.String() + "]" }

// Project computes output channels from input channels.
type Project struct {
	Child Node
	Exprs []expr.RowExpression
	Names []string
}

func (p *Project) Outputs() []Column {
	out := make([]Column, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = Column{Name: p.Names[i], Type: e.TypeOf()}
	}
	return out
}

func (p *Project) Children() []Node { return []Node{p.Child} }

func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = p.Names[i] + " := " + e.String()
	}
	return "Project[" + strings.Join(parts, ", ") + "]"
}

// IsIdentity reports whether the project passes all child channels through
// unchanged.
func (p *Project) IsIdentity() bool {
	childOut := p.Child.Outputs()
	if len(p.Exprs) != len(childOut) {
		return false
	}
	for i, e := range p.Exprs {
		v, ok := e.(*expr.Variable)
		if !ok || v.Channel != i {
			return false
		}
	}
	return true
}

// forwardedChannels maps each output to the child channel it forwards, when
// every expression is a plain variable; nil otherwise.
func (p *Project) forwardedChannels() map[int]int {
	m := make(map[int]int, len(p.Exprs))
	for i, e := range p.Exprs {
		v, ok := e.(*expr.Variable)
		if !ok {
			return nil
		}
		m[i] = v.Channel
	}
	return m
}

// AggStep distinguishes single-node aggregation from the distributed
// partial/final split (Fig 2).
type AggStep int

const (
	AggSingle AggStep = iota
	AggPartial
	AggFinal
)

func (s AggStep) String() string {
	switch s {
	case AggPartial:
		return "PARTIAL"
	case AggFinal:
		return "FINAL"
	}
	return "SINGLE"
}

// Aggregation is one aggregate computation.
type Aggregation struct {
	FuncName   string
	Args       []int // input channels (empty for count(*))
	ArgTypes   []*types.Type
	Distinct   bool
	OutputName string
	// Resolved output types.
	InterType *types.Type
	FinalType *types.Type
}

func (a *Aggregation) describe(child Node) string {
	argNames := make([]string, len(a.Args))
	childOut := child.Outputs()
	for i, ch := range a.Args {
		if ch < len(childOut) {
			argNames[i] = childOut[ch].Name
		} else {
			argNames[i] = fmt.Sprintf("#%d", ch)
		}
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	inner := "*"
	if len(argNames) > 0 {
		inner = strings.Join(argNames, ", ")
	}
	return fmt.Sprintf("%s := %s(%s%s)", a.OutputName, a.FuncName, d, inner)
}

// Aggregate groups by the given child channels and computes aggregates.
// Output channels: group-by columns first, then one per aggregation.
type Aggregate struct {
	Child   Node
	GroupBy []int
	Aggs    []Aggregation
	Step    AggStep
}

func (a *Aggregate) Outputs() []Column {
	childOut := a.Child.Outputs()
	out := make([]Column, 0, len(a.GroupBy)+len(a.Aggs))
	for _, ch := range a.GroupBy {
		out = append(out, childOut[ch])
	}
	for _, agg := range a.Aggs {
		t := agg.FinalType
		if a.Step == AggPartial {
			t = agg.InterType
		}
		out = append(out, Column{Name: agg.OutputName, Type: t})
	}
	return out
}

func (a *Aggregate) Children() []Node { return []Node{a.Child} }

func (a *Aggregate) Describe() string {
	childOut := a.Child.Outputs()
	keys := make([]string, len(a.GroupBy))
	for i, ch := range a.GroupBy {
		keys[i] = childOut[ch].Name
	}
	aggs := make([]string, len(a.Aggs))
	for i := range a.Aggs {
		aggs[i] = a.Aggs[i].describe(a.Child)
	}
	return fmt.Sprintf("Aggregate(%s)[keys=[%s]; %s]", a.Step, strings.Join(keys, ", "), strings.Join(aggs, ", "))
}

// JoinKind enumerates join semantics.
type JoinKind int

const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinLeft:
		return "LEFT"
	case JoinCross:
		return "CROSS"
	}
	return "INNER"
}

// Join is a hash join. Equi-keys pair LeftKeys[i] with RightKeys[i];
// Residual (over concatenated left+right channels) applies afterwards.
type Join struct {
	Kind      JoinKind
	Left      Node
	Right     Node
	LeftKeys  []int
	RightKeys []int
	Residual  expr.RowExpression
}

func (j *Join) Outputs() []Column {
	return append(append([]Column{}, j.Left.Outputs()...), j.Right.Outputs()...)
}

func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

func (j *Join) Describe() string {
	lo, ro := j.Left.Outputs(), j.Right.Outputs()
	conds := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		conds[i] = lo[j.LeftKeys[i]].Name + " = " + ro[j.RightKeys[i]].Name
	}
	s := fmt.Sprintf("%sJoin[%s]", j.Kind, strings.Join(conds, " AND "))
	if j.Residual != nil {
		s += " filter=" + j.Residual.String()
	}
	return s
}

// GeoJoin is the QuadTree-accelerated spatial join the geospatial plugin's
// rewrite produces (§VI, Fig 13): build a QuadTree over the right side's
// geofences on the fly, probe with points from the left side, verify with
// st_contains only for candidate rectangles.
type GeoJoin struct {
	Left  Node // probe side: points
	Right Node // build side: shapes
	// Point coordinates as expressions over left channels.
	Lng expr.RowExpression
	Lat expr.RowExpression
	// ShapeChan is the right channel holding WKT geofences.
	ShapeChan int
}

func (g *GeoJoin) Outputs() []Column {
	return append(append([]Column{}, g.Left.Outputs()...), g.Right.Outputs()...)
}

func (g *GeoJoin) Children() []Node { return []Node{g.Left, g.Right} }

func (g *GeoJoin) Describe() string {
	return fmt.Sprintf("GeoSpatialJoin[quadtree; st_contains(%s, st_point(%s, %s))]",
		g.Right.Outputs()[g.ShapeChan].Name, g.Lng, g.Lat)
}

// SortKey is one ORDER BY key over a child channel.
type SortKey struct {
	Channel int
	Desc    bool
}

// Sort orders rows by the given keys.
type Sort struct {
	Child Node
	Keys  []SortKey
}

func (s *Sort) Outputs() []Column { return s.Child.Outputs() }
func (s *Sort) Children() []Node  { return []Node{s.Child} }

func (s *Sort) Describe() string {
	out := s.Child.Outputs()
	keys := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		keys[i] = out[k.Channel].Name
		if k.Desc {
			keys[i] += " DESC"
		}
	}
	return "Sort[" + strings.Join(keys, ", ") + "]"
}

// Limit keeps the first N rows.
type Limit struct {
	Child Node
	N     int64
}

func (l *Limit) Outputs() []Column { return l.Child.Outputs() }
func (l *Limit) Children() []Node  { return []Node{l.Child} }
func (l *Limit) Describe() string  { return fmt.Sprintf("Limit[%d]", l.N) }

// Union concatenates its sources (UNION ALL semantics; no dedup). All
// sources must have the same output width and types. The hybrid-table
// expansion produces Union[historical scan, real-time scan].
type Union struct {
	Sources []Node
}

func (u *Union) Outputs() []Column { return u.Sources[0].Outputs() }
func (u *Union) Children() []Node  { return append([]Node{}, u.Sources...) }
func (u *Union) Describe() string  { return fmt.Sprintf("Union[%d sources]", len(u.Sources)) }

// Output is the plan root, fixing result column names.
type Output struct {
	Child Node
	Names []string
}

func (o *Output) Outputs() []Column {
	child := o.Child.Outputs()
	out := make([]Column, len(child))
	for i, c := range child {
		out[i] = Column{Name: o.Names[i], Type: c.Type}
	}
	return out
}

func (o *Output) Children() []Node { return []Node{o.Child} }
func (o *Output) Describe() string { return "Output[" + strings.Join(o.Names, ", ") + "]" }

// RemoteSource reads the output of another fragment (inserted by the
// fragmenter in place of an Exchange child).
type RemoteSource struct {
	FragmentID int
	Cols       []Column
}

func (r *RemoteSource) Outputs() []Column { return r.Cols }
func (r *RemoteSource) Children() []Node  { return nil }
func (r *RemoteSource) Describe() string {
	return fmt.Sprintf("RemoteSource[fragment %d]", r.FragmentID)
}

// ---------------------------------------------------------------------------

// mapChildren returns a copy of n whose children are f of n's children; a
// leaf is returned as it is. The passes that treat every node type alike
// (rewrite, the fragmenter, the hybrid expansion) recurse through here, so a
// node type with children is listed once for all of them.
func mapChildren(n Node, f func(Node) Node) Node {
	switch t := n.(type) {
	case *Filter:
		t2 := *t
		t2.Child = f(t.Child)
		return &t2
	case *Project:
		t2 := *t
		t2.Child = f(t.Child)
		return &t2
	case *Aggregate:
		t2 := *t
		t2.Child = f(t.Child)
		return &t2
	case *Join:
		t2 := *t
		t2.Left = f(t.Left)
		t2.Right = f(t.Right)
		return &t2
	case *GeoJoin:
		t2 := *t
		t2.Left = f(t.Left)
		t2.Right = f(t.Right)
		return &t2
	case *Sort:
		t2 := *t
		t2.Child = f(t.Child)
		return &t2
	case *Limit:
		t2 := *t
		t2.Child = f(t.Child)
		return &t2
	case *Output:
		t2 := *t
		t2.Child = f(t.Child)
		return &t2
	case *Union:
		t2 := Union{Sources: make([]Node, len(t.Sources))}
		for i, src := range t.Sources {
			t2.Sources[i] = f(src)
		}
		return &t2
	default:
		return n
	}
}

// Format renders a plan tree for EXPLAIN.
func Format(n Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("    ", depth))
		sb.WriteString("- ")
		sb.WriteString(n.Describe())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}
