package execution

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// Estimated heap cost of hash-aggregation state: a fixed overhead per group
// (map entry + groupState) plus one AggState per aggregate, and a per-entry
// cost for DISTINCT seen-sets. Group costs are only charged for grouped
// aggregations — a global aggregate is a single constant-size state, so the
// paper's "count(*) works at any limit" expectation holds.
const (
	aggGroupBaseCost = 96
	aggStateCost     = 48
	aggDistinctCost  = 32
)

// aggregateOperator implements hash aggregation with three step modes
// (Fig 2): SINGLE consumes raw rows and emits finals; PARTIAL consumes raw
// rows and emits intermediates; FINAL consumes intermediates and emits
// finals.
//
// Grouped aggregations account every new group against the query memory
// context; when a reservation is refused (and spill is enabled) the whole
// hash table is flushed to a key-sorted spill run as pages of [group
// keys..., intermediate states...] and rebuilt empty. Once input is
// exhausted the sorted runs are k-way merged: equal keys across runs are
// combined with AddIntermediate — the same round-trip the distributed
// partial→final path uses — and result pages stream out incrementally, so
// the full set of distinct groups (which by construction exceeded the
// budget) is never rebuilt in memory. Emission order after a spill is
// key-encoding order, not first-seen (grouped output order is unspecified).
// DISTINCT aggregates cannot spill (their seen-sets cannot be merged
// without double counting), so they fail with Insufficient Resources when
// over the limit.
type aggregateOperator struct {
	node  *planner.Aggregate
	child Operator
	fns   []*expr.AggregateFunction
	mem   *opMem

	groups   map[string]*groupState
	order    []string // deterministic emission order (first-seen)
	consumed bool
	emitted  bool

	hasDistinct bool
	runs        []*resource.Run
	merger      *aggMerger
}

// aggMergeCursor reads one sorted spill run during the merge, holding one
// page at a time. Like the sort merge, read-back pages are transient engine
// overhead (one bounded frame per open run), not user memory.
type aggMergeCursor struct {
	src  *runSource
	page *block.Page
	row  int
	key  string // current row's encoded group key
	done bool
}

type groupState struct {
	keys     []any
	states   []expr.AggState
	distinct []map[string]struct{} // per-agg seen-set when DISTINCT
}

func newAggregateOperator(node *planner.Aggregate, child Operator, mem *opMem) (Operator, error) {
	fns := make([]*expr.AggregateFunction, len(node.Aggs))
	hasDistinct := false
	for i, a := range node.Aggs {
		fn, err := expr.ResolveAggregate(a.FuncName, a.ArgTypes)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
		if a.Distinct {
			hasDistinct = true
		}
	}
	return &aggregateOperator{
		node:        node,
		child:       child,
		fns:         fns,
		mem:         mem,
		groups:      map[string]*groupState{},
		hasDistinct: hasDistinct,
	}, nil
}

// appendGroupKey appends a hashable key for vals onto dst. It sits on the
// per-row hot path of hash aggregation, so each supported scalar gets a
// type-tag byte plus a strconv append instead of reflective formatting;
// strings are length-prefixed so separator bytes cannot collide. A double
// is keyed as keyFloat leaves it.
func appendGroupKey(dst []byte, vals []any) []byte {
	for _, v := range vals {
		switch t := v.(type) {
		case nil:
			dst = append(dst, 'n')
		case bool:
			if t {
				dst = append(dst, 'b', 1)
			} else {
				dst = append(dst, 'b', 0)
			}
		case int64:
			dst = append(dst, 'i')
			dst = strconv.AppendInt(dst, t, 36)
		case float64:
			dst = append(dst, 'f')
			dst = strconv.AppendUint(dst, math.Float64bits(keyFloat(t)), 36)
		case string:
			dst = append(dst, 's')
			dst = strconv.AppendInt(dst, int64(len(t)), 36)
			dst = append(dst, ':')
			dst = append(dst, t...)
		default:
			// Rare compound values (e.g. intermediate agg states) fall back
			// to reflective formatting.
			dst = append(dst, 'x')
			dst = fmt.Appendf(dst, "%T\x00%v", v, v)
		}
		dst = append(dst, 0x01)
	}
	return dst
}

// positiveZero is +0.0, boxed once.
var positiveZero any = 0.0

// keyFloat is the group key double f stands for: −0.0 is +0.0, because the
// two are `=`, and every NaN is one NaN, so GROUP BY and DISTINCT keep the
// NaNs together (the vector kernels key doubles the same way).
func keyFloat(f float64) float64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.NaN()
	}
	return f
}

func (o *aggregateOperator) Next() (*block.Page, error) {
	if !o.consumed {
		if err := o.consume(); err != nil {
			return nil, err
		}
		o.consumed = true
	}
	if o.merger != nil {
		return o.merger.next()
	}
	if o.emitted {
		return nil, io.EOF
	}
	o.emitted = true
	return o.emit()
}

// newGroup charges and creates one group for key k (keys are cloned).
// Grouped aggregations may flush the table to disk when the charge is
// refused; the caller's in-flight lookup is then against the fresh table.
func (o *aggregateOperator) newGroup(k string, keys []any) (*groupState, error) {
	if len(o.node.GroupBy) > 0 {
		cost := int64(len(k)) + aggGroupBaseCost + int64(len(o.fns))*aggStateCost
		if o.mem.canSpill() && !o.hasDistinct {
			ok, err := o.mem.reserve(cost)
			if err != nil {
				return nil, err
			}
			if !ok {
				if err := o.spillGroups(); err != nil {
					return nil, err
				}
				if err := o.mem.hardReserve(cost); err != nil {
					return nil, err
				}
			}
		} else if err := o.mem.hardReserve(cost); err != nil {
			return nil, err
		}
	}
	g := &groupState{keys: make([]any, len(keys)), states: make([]expr.AggState, len(o.fns))}
	for i, k := range keys {
		if f, ok := k.(float64); ok && f == 0 {
			k = positiveZero // the group of both zeros emits +0.0
		}
		g.keys[i] = k
	}
	for i, fn := range o.fns {
		g.states[i] = fn.NewState(o.node.Aggs[i].ArgTypes)
	}
	g.distinct = make([]map[string]struct{}, len(o.fns))
	for i, a := range o.node.Aggs {
		if a.Distinct {
			g.distinct[i] = map[string]struct{}{}
		}
	}
	o.groups[k] = g
	o.order = append(o.order, k)
	return g, nil
}

func (o *aggregateOperator) consume() error {
	// Scratch reused across every row of every page: keys is cloned only
	// when it becomes a new group's identity, vals is never retained by
	// AggState.Add, and the key bytes are materialized to a string only for
	// new map entries (the lookup itself does not allocate).
	keys := make([]any, len(o.node.GroupBy))
	var vals []any
	var keyBuf, distBuf []byte
	for {
		p, err := o.child.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		n := p.Count()
		for row := 0; row < n; row++ {
			for i, ch := range o.node.GroupBy {
				keys[i] = p.Blocks[ch].Value(row)
			}
			keyBuf = appendGroupKey(keyBuf[:0], keys)
			g, ok := o.groups[string(keyBuf)]
			if !ok {
				g, err = o.newGroup(string(keyBuf), keys)
				if err != nil {
					return err
				}
			}
			for i, a := range o.node.Aggs {
				if o.node.Step == planner.AggFinal {
					// Input channel holds the intermediate value.
					g.states[i].AddIntermediate(p.Blocks[a.Args[0]].Value(row))
					continue
				}
				vals = vals[:0]
				for _, ch := range a.Args {
					vals = append(vals, p.Blocks[ch].Value(row))
				}
				if g.distinct[i] != nil {
					if len(vals) > 0 && vals[0] == nil {
						continue
					}
					distBuf = appendGroupKey(distBuf[:0], vals)
					if _, seen := g.distinct[i][string(distBuf)]; seen {
						continue
					}
					if err := o.mem.hardReserve(int64(len(distBuf)) + aggDistinctCost); err != nil {
						return err
					}
					g.distinct[i][string(distBuf)] = struct{}{}
				}
				g.states[i].Add(vals)
			}
		}
	}
	// Global aggregation over empty input still produces one group.
	if len(o.node.GroupBy) == 0 && len(o.groups) == 0 {
		g := &groupState{states: make([]expr.AggState, len(o.fns))}
		for i, fn := range o.fns {
			g.states[i] = fn.NewState(o.node.Aggs[i].ArgTypes)
		}
		g.distinct = make([]map[string]struct{}, len(o.fns))
		o.groups[""] = g
		o.order = append(o.order, "")
	}
	if len(o.runs) > 0 {
		// Spilled at least once: flush the remainder as the last sorted run
		// and hand emission over to the streaming merge.
		if err := o.spillGroups(); err != nil {
			return err
		}
		o.merger = newAggMerger(o.node, o.fns)
		return o.merger.open(o.runs)
	}
	return nil
}

// aggSpillTypes is the schema of a spilled aggregation page: the group-by
// key columns followed by one intermediate-state column per aggregate. Both
// the row-at-a-time and vectorized operators spill this schema, so their
// runs merge interchangeably.
func aggSpillTypes(node *planner.Aggregate, fns []*expr.AggregateFunction) []*types.Type {
	childCols := node.Child.Outputs()
	ts := make([]*types.Type, 0, len(node.GroupBy)+len(fns))
	for _, ch := range node.GroupBy {
		ts = append(ts, childCols[ch].Type)
	}
	for i, fn := range fns {
		ts = append(ts, fn.IntermediateType(node.Aggs[i].ArgTypes))
	}
	return ts
}

// spillGroups writes every buffered group to one run — sorted by encoded
// key, so the read-back merge can align equal groups across runs with plain
// cursors — and resets the hash table, freeing its memory.
func (o *aggregateOperator) spillGroups() error {
	if len(o.order) == 0 {
		return nil
	}
	sort.Strings(o.order)
	w, err := o.mem.newRun("agg")
	if err != nil {
		return err
	}
	ts := aggSpillTypes(o.node, o.fns)
	row := make([]any, len(ts))
	nk := len(o.node.GroupBy)
	for off := 0; off < len(o.order); off += spillPageRows {
		n := spillPageRows
		if off+n > len(o.order) {
			n = len(o.order) - off
		}
		pb := block.NewPageBuilder(ts)
		for _, k := range o.order[off : off+n] {
			g := o.groups[k]
			copy(row, g.keys)
			for i, st := range g.states {
				row[nk+i] = st.Intermediate()
			}
			pb.AppendRow(row)
		}
		if err := w.WritePage(pb.Build()); err != nil {
			w.Abandon()
			return o.mem.fail(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	o.runs = append(o.runs, run)
	o.mem.addSpilled(run.Bytes())
	o.groups = map[string]*groupState{}
	o.order = o.order[:0]
	o.mem.releaseAll()
	return nil
}

// aggMerger k-way merges key-sorted aggregation spill runs, combining equal
// keys across runs with AddIntermediate and streaming result pages out. It
// is shared by the row-at-a-time operator above and the vectorized
// aggregation (vectoragg.go): both spill the same page schema ([group
// keys..., intermediate states...], sorted by encoded key), so one merge
// serves either producer.
type aggMerger struct {
	node      *planner.Aggregate
	fns       []*expr.AggregateFunction
	cursors   []*aggMergeCursor
	mergeKeys []any
	mergeBuf  []byte
}

func newAggMerger(node *planner.Aggregate, fns []*expr.AggregateFunction) *aggMerger {
	return &aggMerger{node: node, fns: fns}
}

// open starts a cursor per sorted run and positions each on its first row.
// The merge holds only the cursor pages plus one group's states at a time,
// so it fits any budget — unlike rebuilding the full distinct-group table,
// which by construction cannot fit (that is why it spilled).
func (o *aggMerger) open(runs []*resource.Run) error {
	o.mergeKeys = make([]any, len(o.node.GroupBy))
	for _, r := range runs {
		c := &aggMergeCursor{src: &runSource{run: r}}
		o.cursors = append(o.cursors, c)
		if err := o.advanceCursor(c); err != nil {
			return err
		}
	}
	return nil
}

// close releases any cursors still holding open run readers.
func (o *aggMerger) close() error {
	var errs []error
	for _, c := range o.cursors {
		errs = append(errs, c.src.Close())
	}
	return errors.Join(errs...)
}

// advanceCursor moves a cursor to its next row, loading pages as needed (the
// run source removes its file as soon as it is read to the end).
func (o *aggMerger) advanceCursor(c *aggMergeCursor) error {
	if c.page != nil {
		c.row++
		if c.row < c.page.Count() {
			o.cursorKey(c)
			return nil
		}
		c.page = nil
	}
	for {
		p, err := c.src.Next()
		if errors.Is(err, io.EOF) {
			c.done = true
			return nil
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		c.page, c.row = p, 0
		o.cursorKey(c)
		return nil
	}
}

// cursorKey recomputes the cursor's encoded group key for its current row.
func (o *aggMerger) cursorKey(c *aggMergeCursor) {
	for i := range o.mergeKeys {
		o.mergeKeys[i] = c.page.Blocks[i].Value(c.row)
	}
	o.mergeBuf = appendGroupKey(o.mergeBuf[:0], o.mergeKeys)
	c.key = string(o.mergeBuf)
}

// next emits the next page of the k-way merge: the smallest key across
// the live cursors is combined (AddIntermediate over every run holding it)
// into one transient group and appended, until the page fills or the runs
// drain.
func (o *aggMerger) next() (*block.Page, error) {
	outs := o.node.Outputs()
	colTypes := make([]*types.Type, len(outs))
	for i, col := range outs {
		colTypes[i] = col.Type
	}
	nk := len(o.node.GroupBy)
	pb := block.NewPageBuilder(colTypes)
	row := make([]any, 0, len(outs))
	keys := make([]any, nk) // scratch: AppendRow copies per value
	for pb.Len() < spillPageRows {
		var best string
		found := false
		for _, c := range o.cursors {
			if !c.done && (!found || c.key < best) {
				best, found = c.key, true
			}
		}
		if !found {
			break
		}
		states := make([]expr.AggState, len(o.fns))
		for i, fn := range o.fns {
			states[i] = fn.NewState(o.node.Aggs[i].ArgTypes)
		}
		haveKeys := false
		for _, c := range o.cursors {
			for !c.done && c.key == best {
				if !haveKeys {
					haveKeys = true
					for i := 0; i < nk; i++ {
						keys[i] = c.page.Blocks[i].Value(c.row)
					}
				}
				for i := range o.fns {
					states[i].AddIntermediate(c.page.Blocks[nk+i].Value(c.row))
				}
				if err := o.advanceCursor(c); err != nil {
					return nil, err
				}
			}
		}
		row = row[:0]
		row = append(row, keys...)
		for _, st := range states {
			if o.node.Step == planner.AggPartial {
				row = append(row, st.Intermediate())
			} else {
				row = append(row, st.Final())
			}
		}
		pb.AppendRow(row)
	}
	if pb.Len() == 0 {
		return nil, io.EOF
	}
	return pb.Build(), nil
}

func (o *aggregateOperator) emit() (*block.Page, error) {
	outs := o.node.Outputs()
	colTypes := make([]*types.Type, len(outs))
	for i, c := range outs {
		colTypes[i] = c.Type
	}
	pb := block.NewPageBuilder(colTypes)
	row := make([]any, 0, len(outs)) // scratch: AppendRow copies per value
	for _, k := range o.order {
		g := o.groups[k]
		row = row[:0]
		row = append(row, g.keys...)
		for _, st := range g.states {
			if o.node.Step == planner.AggPartial {
				row = append(row, st.Intermediate())
			} else {
				row = append(row, st.Final())
			}
		}
		pb.AppendRow(row)
	}
	return pb.Build(), nil
}

func (o *aggregateOperator) Close() error {
	var errs []error
	if o.merger != nil {
		errs = append(errs, o.merger.close())
	}
	for _, r := range o.runs {
		r.Remove()
	}
	o.runs = nil
	o.mem.releaseAll()
	errs = append(errs, o.child.Close())
	return errors.Join(errs...)
}
