package planner

import (
	"prestolite/internal/connector"
	"prestolite/internal/expr"
)

// Dereference pushdown: nested column pruning at the plan level (§V.D). A
// dereference chain rooted at an input channel — t.base.fare, wherever in the
// plan it is written — is moved down to the node that produces that channel:
// through projections, filters, sorts, limits and both sides of a join, until
// it reaches a scan whose connector supports NestedProjectionPushdown, where
// it becomes one more dotted path of the scan. Column pruning, which runs
// next, then finds the struct channel unreferenced and drops it, so the
// reader never materializes the other 18+ fields of the struct and the join
// and the exchange carry one primitive column instead of the ROW.
//
// Aggregate outputs and Union sources are not crossed: a subfield of an
// aggregate's result is not a subfield of its input, and the sources of a
// union own different scans. A chain asked of such a node is computed in a
// projection directly above it.

// derefChain is a maximal dereference chain rooted at channel root of the
// node it is asked of: e is DEREFERENCE(...DEREFERENCE(Variable(root), f1)
// ..., fn) and path is ".f1...fn".
type derefChain struct {
	root int
	path string
	e    *expr.SpecialForm
}

// chainOf recognises a dereference chain rooted at an input channel.
func chainOf(sf *expr.SpecialForm) (derefChain, bool) {
	if sf.Form != expr.FormDereference {
		return derefChain{}, false
	}
	fieldConst, ok := sf.Args[1].(*expr.Constant)
	if !ok {
		return derefChain{}, false
	}
	field, ok := fieldConst.Value.(string)
	if !ok {
		return derefChain{}, false
	}
	switch base := sf.Args[0].(type) {
	case *expr.Variable:
		return derefChain{root: base.Channel, path: "." + field, e: sf}, true
	case *expr.SpecialForm:
		if inner, ok := chainOf(base); ok {
			return derefChain{root: inner.root, path: inner.path + "." + field, e: sf}, true
		}
	}
	return derefChain{}, false
}

// reroot rebuilds the chain c over root in place of its variable.
func reroot(sf *expr.SpecialForm, root expr.RowExpression) *expr.SpecialForm {
	base := root
	if inner, ok := sf.Args[0].(*expr.SpecialForm); ok {
		base = reroot(inner, root)
	}
	return &expr.SpecialForm{Form: sf.Form, Args: []expr.RowExpression{base, sf.Args[1]}, Ret: sf.Ret}
}

// chainSet is the distinct chains of some expressions, in first-seen order.
type chainSet []derefChain

func (s *chainSet) add(c derefChain) {
	if s.index(c) < 0 {
		*s = append(*s, c)
	}
}

func (s chainSet) index(c derefChain) int {
	for i := range s {
		if s[i].root == c.root && s[i].path == c.path {
			return i
		}
	}
	return -1
}

// collect adds the maximal chains of e. It allocates nothing when e holds no
// dereference, which keeps the rule free on the plans it does not apply to.
func (s *chainSet) collect(e expr.RowExpression) {
	switch t := e.(type) {
	case *expr.SpecialForm:
		if c, ok := chainOf(t); ok {
			s.add(c)
			return
		}
		for _, a := range t.Args {
			s.collect(a)
		}
	case *expr.Call:
		for _, a := range t.Args {
			s.collect(a)
		}
	}
}

// lower rewrites e over a child that now provides chain i of s at channel
// at[i] of cols. Every other variable goes through plain (nil = unchanged).
// Subtrees without a chain or a remapped variable are returned as they are.
func (s chainSet) lower(e expr.RowExpression, cols []Column, at []int, plain func(*expr.Variable) expr.RowExpression) expr.RowExpression {
	switch t := e.(type) {
	case *expr.Variable:
		if plain != nil {
			return plain(t)
		}
	case *expr.SpecialForm:
		if c, ok := chainOf(t); ok {
			ch := at[s.index(c)]
			return expr.NewVariable(cols[ch].Name, ch, t.Ret)
		}
		if args := s.lowerArgs(t.Args, cols, at, plain); args != nil {
			return &expr.SpecialForm{Form: t.Form, Args: args, Ret: t.Ret}
		}
	case *expr.Call:
		if args := s.lowerArgs(t.Args, cols, at, plain); args != nil {
			return &expr.Call{Handle: t.Handle, Args: args, Ret: t.Ret}
		}
	}
	return e
}

// lowerArgs lowers each argument; nil means none of them changed.
func (s chainSet) lowerArgs(args []expr.RowExpression, cols []Column, at []int, plain func(*expr.Variable) expr.RowExpression) []expr.RowExpression {
	var out []expr.RowExpression
	for i, a := range args {
		na := s.lower(a, cols, at, plain)
		if na != a && out == nil {
			out = append([]expr.RowExpression{}, args...)
		}
		if out != nil {
			out[i] = na
		}
	}
	return out
}

// pushDereferences is the rule. It returns n rewritten so that no expression
// in it dereferences a channel whose producer could compute the subfield
// itself, plus, for each chain of want (rooted at n's outputs), the channel
// of the result that now carries it. The result keeps n's outputs at their
// channels and may add channels after them; column pruning removes the ones
// nothing reads. A plan without dereferences comes back as the same node.
func (o *Optimizer) pushDereferences(n Node, want chainSet) (Node, []int) {
	switch t := n.(type) {
	case *Output:
		child := o.pushDereferencesKeepWidth(t.Child)
		if child == t.Child {
			return n, nil
		}
		return &Output{Child: child, Names: t.Names}, nil
	case *Project:
		// A chain asked of an output continues through the expression that
		// computes it: base.fare of `base := t.base` is t.base.fare below.
		exprs, names := t.Exprs, t.Names
		if len(want) > 0 {
			exprs = append([]expr.RowExpression{}, t.Exprs...)
			names = append([]string{}, t.Names...)
			for _, c := range want {
				exprs = append(exprs, reroot(c.e, t.Exprs[c.root]))
				names = append(names, t.Names[c.root]+c.path)
			}
		}
		var below chainSet
		for _, e := range exprs {
			below.collect(e)
		}
		child, at := o.pushDereferences(t.Child, below)
		if child == t.Child && len(want) == 0 {
			return n, nil
		}
		if len(below) > 0 {
			cols := child.Outputs()
			lowered := make([]expr.RowExpression, len(exprs))
			for i, e := range exprs {
				lowered[i] = below.lower(e, cols, at, nil)
			}
			exprs = lowered
		}
		return &Project{Child: child, Exprs: exprs, Names: names}, channelsFrom(len(t.Exprs), len(want))
	case *Filter:
		below := append(chainSet{}, want...)
		below.collect(t.Predicate)
		child, at := o.pushDereferences(t.Child, below)
		if child == t.Child {
			return n, nil
		}
		return &Filter{Child: child, Predicate: below.lower(t.Predicate, child.Outputs(), at, nil)}, at[:len(want)]
	case *Sort:
		child, at := o.pushDereferences(t.Child, want)
		if child == t.Child {
			return n, nil
		}
		return &Sort{Child: child, Keys: t.Keys}, at
	case *Limit:
		child, at := o.pushDereferences(t.Child, want)
		if child == t.Child {
			return n, nil
		}
		return &Limit{Child: child, N: t.N}, at
	case *Join:
		below := append(chainSet{}, want...)
		if t.Residual != nil {
			below.collect(t.Residual)
		}
		sides, ok := o.pushDereferencesIntoSides(t.Left, t.Right, below)
		if !ok {
			return n, nil
		}
		nj := *t
		nj.Left, nj.Right = sides.left, sides.right
		if t.Residual != nil {
			nj.Residual = below.lower(t.Residual, sides.cols, sides.at, sides.shiftRight)
		}
		return sides.restoreOrder(&nj, len(want))
	case *GeoJoin:
		below := append(chainSet{}, want...)
		below.collect(t.Lng)
		below.collect(t.Lat)
		sides, ok := o.pushDereferencesIntoSides(t.Left, t.Right, below)
		if !ok {
			return n, nil
		}
		ng := *t
		ng.Left, ng.Right = sides.left, sides.right
		ng.Lng = below.lower(t.Lng, sides.cols, sides.at, nil)
		ng.Lat = below.lower(t.Lat, sides.cols, sides.at, nil)
		return sides.restoreOrder(&ng, len(want))
	case *TableScan:
		if len(want) == 0 {
			return n, nil
		}
		if scan, at, ok := o.pushNestedPaths(t, want); ok {
			return scan, at
		}
		return computeAbove(n, want)
	case *Aggregate:
		if child, _ := o.pushDereferences(t.Child, nil); child != t.Child {
			na := *t
			na.Child = child
			n = &na
		}
		return computeAbove(n, want)
	case *Union:
		var sources []Node
		for i, src := range t.Sources {
			ns := o.pushDereferencesKeepWidth(src)
			if ns != src && sources == nil {
				sources = append([]Node{}, t.Sources...)
			}
			if sources != nil {
				sources[i] = ns
			}
		}
		if sources != nil {
			n = &Union{Sources: sources}
		}
		return computeAbove(n, want)
	default:
		return computeAbove(n, want)
	}
}

// pushDereferencesKeepWidth applies the rule below a node that fixes its
// child's width (the plan root, a union source) and trims what it added.
func (o *Optimizer) pushDereferencesKeepWidth(n Node) Node {
	out, _ := o.pushDereferences(n, nil)
	if out == n {
		return n
	}
	cols := out.Outputs()
	width := len(n.Outputs())
	if len(cols) == width {
		return out
	}
	trim := &Project{Child: out}
	for ch := 0; ch < width; ch++ {
		trim.passThrough(cols, ch)
	}
	return trim
}

// passThrough adds an output to p that forwards channel ch of its child,
// whose outputs are cols.
func (p *Project) passThrough(cols []Column, ch int) {
	p.Exprs = append(p.Exprs, expr.NewVariable(cols[ch].Name, ch, cols[ch].Type))
	p.Names = append(p.Names, cols[ch].Name)
}

// pushNestedPaths is the rule's base case: the scan itself produces the
// subfields, as dotted paths beside its columns.
func (o *Optimizer) pushNestedPaths(scan *TableScan, want chainSet) (Node, []int, bool) {
	if scan.PushedAgg != "" {
		return nil, nil, false
	}
	conn, err := o.Catalogs.Get(scan.Catalog)
	if err != nil {
		return nil, nil, false
	}
	npd, ok := conn.(connector.NestedProjectionPushdown)
	if !ok {
		return nil, nil, false
	}
	paths := make([]string, 0, len(scan.Cols)+len(want))
	for _, c := range scan.Cols {
		paths = append(paths, c.Name)
	}
	for _, c := range want {
		paths = append(paths, scan.Cols[c.root].Name+c.path)
	}
	handle, cols, pushed := npd.PushNestedPaths(scan.Handle, paths)
	if !pushed {
		return nil, nil, false
	}
	ns := *scan
	ns.Handle = handle
	ns.Cols = make([]Column, len(cols))
	for i, c := range cols {
		ns.Cols[i] = Column{Name: c.Name, Type: c.Type}
	}
	ns.ColumnOrdinals = identityChannels(len(cols))
	return &ns, channelsFrom(len(scan.Cols), len(want)), true
}

// computeAbove computes the chains in a projection over n: the fallback for
// producers the rule does not cross.
func computeAbove(n Node, want chainSet) (Node, []int) {
	if len(want) == 0 {
		return n, nil
	}
	cols := n.Outputs()
	p := &Project{Child: n}
	for ch := range cols {
		p.passThrough(cols, ch)
	}
	for _, c := range want {
		p.Exprs = append(p.Exprs, c.e)
		p.Names = append(p.Names, cols[c.root].Name+c.path)
	}
	return p, channelsFrom(len(cols), len(want))
}

func channelsFrom(first, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = first + i
	}
	return out
}

// joinSides is a join's two inputs after each was asked for the chains
// rooted in it.
type joinSides struct {
	left, right   Node
	leftN, rightN int      // widths before
	newLeftN      int      // left's width after
	cols          []Column // left ++ right outputs after
	at            []int    // chain i's channel in cols
}

// pushDereferencesIntoSides hands each chain (rooted at the join's
// concatenated channels) to the side that owns its root. Inner and outer
// joins alike: a subfield of a NULL struct and of an unmatched outer row are
// both NULL. ok is false when neither side changed.
func (o *Optimizer) pushDereferencesIntoSides(left, right Node, chains chainSet) (joinSides, bool) {
	var s joinSides
	var wantL, wantR chainSet
	if len(chains) > 0 {
		s.leftN = len(left.Outputs())
		for _, c := range chains {
			if c.root < s.leftN {
				wantL = append(wantL, c)
			} else {
				wantR = append(wantR, derefChain{root: c.root - s.leftN, path: c.path, e: c.e})
			}
		}
	}
	var atL, atR []int
	s.left, atL = o.pushDereferences(left, wantL)
	s.right, atR = o.pushDereferences(right, wantR)
	if s.left == left && s.right == right {
		return s, false
	}
	s.leftN, s.rightN = len(left.Outputs()), len(right.Outputs())
	lcols := s.left.Outputs()
	s.newLeftN = len(lcols)
	s.cols = append(append([]Column{}, lcols...), s.right.Outputs()...)
	for _, c := range chains {
		if c.root < s.leftN {
			s.at = append(s.at, atL[0])
			atL = atL[1:]
		} else {
			s.at = append(s.at, s.newLeftN+atR[0])
			atR = atR[1:]
		}
	}
	return s, true
}

// shiftRight moves a reference to a right-side channel past the channels the
// left side gained.
func (s joinSides) shiftRight(v *expr.Variable) expr.RowExpression {
	if v.Channel < s.leftN || s.newLeftN == s.leftN {
		return v
	}
	return expr.NewVariable(v.Name, v.Channel+s.newLeftN-s.leftN, v.Type)
}

// restoreOrder puts the join's original channels back at their positions
// (the left side's new channels sit between them) and the first nWant chains
// after them.
func (s joinSides) restoreOrder(join Node, nWant int) (Node, []int) {
	if s.newLeftN == s.leftN {
		return join, s.at[:nWant]
	}
	p := &Project{Child: join}
	for ch := 0; ch < s.leftN; ch++ {
		p.passThrough(s.cols, ch)
	}
	for ch := 0; ch < s.rightN; ch++ {
		p.passThrough(s.cols, s.newLeftN+ch)
	}
	for _, ch := range s.at[:nWant] {
		p.passThrough(s.cols, ch)
	}
	return p, channelsFrom(s.leftN+s.rightN, nWant)
}
