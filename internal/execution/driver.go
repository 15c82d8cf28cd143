// Intra-task parallelism (§III Fig 1): a task runs N concurrent pipeline
// instances — drivers — over a shared split queue, the way Presto saturates
// a worker's cores. Build translates one plan into N driver pipelines joined
// by local exchanges; every operator implementation is single-goroutine — a
// driver's slice of an operator — and concurrency lives entirely in the
// exchanges. One driver is the same translation with no exchange in it.
package execution

import (
	"context"
	"fmt"

	"prestolite/internal/planner"
	"prestolite/internal/resource"
)

// maxDrivers bounds the per-task parallelism a session property can request.
const maxDrivers = 64

// Build constructs the operator tree for a plan with ctx.Drivers concurrent
// pipelines, gathered into one serial root stream; it is the only
// plan→operator translator. With Drivers ≤ 1 the tree holds no exchange and
// draining it starts no goroutine. With ctx.Stats set, every operator is
// wrapped to record execution statistics keyed by its pre-order position in
// the plan.
func Build(node planner.Node, ctx *Context) (Operator, error) {
	n := ctx.Drivers
	if n > maxDrivers {
		n = maxDrivers
	}
	if n < 1 {
		n = 1
	}
	// The one place a bare context (tests, mostly) gets its defaults: below
	// Build every operator has a pool to account in and a context to watch.
	if ctx.Memory == nil {
		ctx.Memory = resource.NewPool("query", 0)
	}
	if ctx.Ctx == nil {
		ctx.Ctx = context.Background()
	}
	if ctx.Stats != nil && ctx.ids == nil {
		ctx.ids = planOperatorIDs(node)
	}
	return buildOne(node, ctx, n)
}

// buildOne builds node and gathers its streams into a single operator.
func buildOne(node planner.Node, ctx *Context, n int) (Operator, error) {
	streams, err := build(node, ctx, n)
	if err != nil {
		return nil, err
	}
	return gatherOne(ctx, streams), nil
}

// build builds node as k parallel streams (k == 1 means the segment is
// serial, which it always is when n == 1). Stateless operators (filter,
// project) replicate per stream; stateful ones either partition their input
// so each driver owns a disjoint key range, or run one instance behind a
// gather. Every operator is instrumented under its plan node's id.
func build(node planner.Node, ctx *Context, n int) ([]Operator, error) {
	one := func(op Operator) []Operator { return []Operator{ctx.instrument(node, op)} }
	switch t := node.(type) {
	case *planner.Output:
		// No operator of its own: the node layers its accounting on the
		// gathered root.
		child, err := buildOne(t.Child, ctx, n)
		if err != nil {
			return nil, err
		}
		return one(child), nil

	case *planner.Values:
		return one(newValuesOperator(t)), nil

	case *planner.RemoteSource:
		if ctx.RemoteSources == nil {
			return nil, fmt.Errorf("execution: RemoteSource outside distributed execution")
		}
		op, err := ctx.RemoteSources(t.FragmentID, t.Cols)
		if err != nil {
			return nil, err
		}
		return one(op), nil

	case *planner.TableScan:
		return buildScan(t, ctx, n)

	case *planner.Filter:
		streams, err := build(t.Child, ctx, n)
		if err != nil {
			return nil, err
		}
		for i := range streams {
			streams[i] = ctx.instrument(t, &filterOperator{child: streams[i], predicate: t.Predicate})
		}
		return streams, nil

	case *planner.Project:
		streams, err := build(t.Child, ctx, n)
		if err != nil {
			return nil, err
		}
		for i := range streams {
			streams[i] = ctx.instrument(t, &projectOperator{child: streams[i], exprs: t.Exprs})
		}
		return streams, nil

	case *planner.Limit:
		streams, err := build(t.Child, ctx, n)
		if err != nil {
			return nil, err
		}
		if len(streams) > 1 {
			// Per-driver limits cut each stream early; the final limit after
			// the gather enforces the exact count. When it is satisfied its
			// Close tears the exchange down, which stops sibling drivers —
			// LIMIT over a huge scan does not finish the scan first.
			for i := range streams {
				streams[i] = &limitOperator{child: streams[i], remaining: t.N}
			}
		}
		return one(&limitOperator{child: gatherOne(ctx, streams), remaining: t.N}), nil

	case *planner.Sort:
		return buildSort(t, ctx, n)

	case *planner.Aggregate:
		return buildAggregate(t, ctx, n)

	case *planner.Join:
		return buildJoin(t, ctx, n)

	case *planner.GeoJoin:
		// No parallel form: both inputs build serially, scans included.
		left, err := buildOne(t.Left, ctx, 1)
		if err != nil {
			return nil, err
		}
		right, err := buildOne(t.Right, ctx, 1)
		if err != nil {
			return nil, err
		}
		return one(newGeoJoinOperator(t, left, right, newOpMem("the build side of a spatial join", ctx, false))), nil

	case *planner.Union:
		var streams []Operator
		for _, src := range t.Sources {
			srcStreams, err := build(src, ctx, n)
			if err != nil {
				for _, s := range streams {
					_ = s.Close() // already failing: the build error is the one to report
				}
				return nil, err
			}
			streams = append(streams, srcStreams...)
		}
		if n == 1 {
			// One driver drains the sources in order on its own goroutine.
			return one(&unionOperator{children: streams}), nil
		}
		// Concatenate the sides' streams (UNION ALL): each side keeps its
		// own parallelism and downstream gathers/exchanges accept the
		// combined stream set.
		for i := range streams {
			streams[i] = ctx.instrument(t, streams[i])
		}
		return streams, nil

	default:
		return nil, fmt.Errorf("execution: no operator for %T", node)
	}
}

// buildScan shares one split queue across up to n scan drivers, so split
// assignment self-balances (a driver that drew a small split just takes the
// next one). A table with fewer splits than drivers gets one scan per split
// plus a round-robin fan-out, so downstream operators still run n-wide; one
// driver, or a table with no splits, gets the bare scan.
func buildScan(t *planner.TableScan, ctx *Context, n int) ([]Operator, error) {
	provider, splits, err := scanSplits(t, ctx)
	if err != nil {
		return nil, err
	}
	queue := &splitQueue{splits: splits}
	streams := make([]Operator, max(1, min(n, len(splits))))
	for i := range streams {
		streams[i] = ctx.instrument(t, &scanOperator{
			scan: t, provider: provider, queue: queue, columns: t.ColumnOrdinals, ctx: ctx.Ctx,
			mem: newOpMem("a connector's aggregation of a split", ctx, false),
		})
	}
	if len(streams) < n && len(splits) > 0 {
		return newLocalExchange(ctx, streams, exRoundRobin, nil, n), nil
	}
	return streams, nil
}

// buildAggregate is the partitioned parallel hash aggregation.
//
// Grouped single-step (the common case): each driver pre-aggregates its own
// stream into a partial hash map (driver-local — no shared map, no lock on
// the hot path), a hash-partition exchange routes the partials by group key,
// and per-partition FINAL aggregations merge them. Every group key lands
// wholly in one partition, so results are exact and each final map holds a
// disjoint key subset. Both layers are ordinary hash aggregations with
// their own memory handles, so spill-under-pressure works per driver.
//
// Grouped DISTINCT cannot pre-aggregate (seen-sets do not merge), so raw
// rows are partitioned by group key into n SINGLE aggregations instead.
// PARTIAL steps (worker fragments) stay per-driver with no exchange — the
// downstream FINAL dedups across drivers exactly as it dedups across tasks.
// A global (no GROUP BY) single-step splits into per-driver partials plus
// one serial final, mirroring the fragmenter's partial/final construction;
// global DISTINCT and FINAL steps run serially behind a gather.
func buildAggregate(t *planner.Aggregate, ctx *Context, n int) ([]Operator, error) {
	streams, err := build(t.Child, ctx, n)
	if err != nil {
		return nil, err
	}
	serial := func() ([]Operator, error) {
		op, err := newVectorAggOperator(ctx, t, gatherOne(ctx, streams))
		if err != nil {
			return nil, err
		}
		return []Operator{ctx.instrument(t, op)}, nil
	}
	if len(streams) == 1 {
		return serial()
	}
	hasDistinct := false
	for _, a := range t.Aggs {
		if a.Distinct {
			hasDistinct = true
		}
	}

	if len(t.GroupBy) > 0 {
		switch {
		case t.Step == planner.AggPartial && !hasDistinct:
			// Driver-local partials; duplicates across drivers are merged by
			// the downstream FINAL (same contract as across tasks).
			outs := make([]Operator, len(streams))
			for i, s := range streams {
				op, err := newVectorAggOperator(ctx, t, s)
				if err != nil {
					return nil, err
				}
				outs[i] = ctx.instrument(t, op)
			}
			return outs, nil

		case t.Step == planner.AggSingle && !hasDistinct:
			// Partial per driver → partition by group key → final per
			// partition.
			partial := &planner.Aggregate{Child: t.Child, GroupBy: t.GroupBy, Aggs: t.Aggs, Step: planner.AggPartial}
			partials := make([]Operator, len(streams))
			for i, s := range streams {
				op, err := newVectorAggOperator(ctx, partial, s)
				if err != nil {
					return nil, err
				}
				partials[i] = op
			}
			// In partial output layout the group keys are channels 0..g-1.
			groups := len(t.GroupBy)
			keys := make([]int, groups)
			for i := range keys {
				keys[i] = i
			}
			endpoints, _ := newAdaptiveExchange(ctx, partials, keys, n, exGather)
			final := planner.FinalOver(&planner.Values{Cols: partial.Outputs()}, t)
			outs := make([]Operator, n)
			for i, ep := range endpoints {
				op, err := newVectorAggOperator(ctx, final, ep)
				if err != nil {
					return nil, err
				}
				outs[i] = ctx.instrument(t, op)
			}
			return outs, nil

		case t.Step != planner.AggFinal:
			// DISTINCT (single or partial): partition the raw rows by group
			// key so each group's seen-sets live on exactly one driver.
			endpoints := newLocalExchange(ctx, streams, exPartition, t.GroupBy, n)
			outs := make([]Operator, n)
			for i, ep := range endpoints {
				op, err := newVectorAggOperator(ctx, t, ep)
				if err != nil {
					return nil, err
				}
				outs[i] = ctx.instrument(t, op)
			}
			return outs, nil
		}
		// FINAL over a parallel child (not produced by current plans): merge
		// serially — correctness over speed.
		return serial()
	}

	// Global aggregation.
	if hasDistinct || t.Step == planner.AggFinal {
		return serial()
	}
	partial := &planner.Aggregate{Child: t.Child, Aggs: t.Aggs, Step: planner.AggPartial}
	partials := make([]Operator, len(streams))
	for i, s := range streams {
		op, err := newVectorAggOperator(ctx, partial, s)
		if err != nil {
			return nil, err
		}
		partials[i] = op
	}
	if t.Step == planner.AggPartial {
		// The plan already expects intermediates: one partial per driver.
		for i := range partials {
			partials[i] = ctx.instrument(t, partials[i])
		}
		return partials, nil
	}
	final := planner.FinalOver(&planner.Values{Cols: partial.Outputs()}, t)
	op, err := newVectorAggOperator(ctx, final, gatherOne(ctx, partials))
	if err != nil {
		return nil, err
	}
	return []Operator{ctx.instrument(t, op)}, nil
}

// buildJoin partitions both sides of an equi-join by join key with the
// same hash, so matching keys meet on the same driver: n independent
// joins, each building a hash table over its own key-disjoint build slice
// (the parallel join build) and probing it with its own probe slice. NULL
// and NaN keys route consistently too, which keeps LEFT-join null
// extension on exactly one driver. Joins without equi keys (cross joins)
// stay serial — the build side would have to be broadcast — but their
// inputs still scan in parallel behind gathers.
func buildJoin(t *planner.Join, ctx *Context, n int) ([]Operator, error) {
	ls, err := build(t.Left, ctx, n)
	if err != nil {
		return nil, err
	}
	rs, err := build(t.Right, ctx, n)
	if err != nil {
		return nil, err
	}
	join := func(probe, build Operator) Operator {
		return ctx.instrument(t, newVectorJoinOperator(t, probe, build, newOpMem("the build side of a join", ctx, true)))
	}
	if len(t.LeftKeys) == 0 || (len(ls) == 1 && len(rs) == 1) {
		return []Operator{join(gatherOne(ctx, ls), gatherOne(ctx, rs))}, nil
	}
	buildEnds, st := newAdaptiveExchange(ctx, rs, t.RightKeys, n, exBroadcast)
	probeEnds := newFollowerExchange(ctx, ls, t.LeftKeys, n, st)
	outs := make([]Operator, n)
	for i := range outs {
		outs[i] = join(probeEnds[i], buildEnds[i])
	}
	return outs, nil
}

// buildSort runs one in-memory/external sort per driver and merges the
// sorted streams: the per-driver sorts are the "sorted runs" and the k-way
// merge is the operator the external sort uses over its spilled runs. The
// passthrough exchange exists purely to drive the n sorts concurrently —
// each one buffers and sorts in its producer goroutine while the merge
// waits for first pages.
func buildSort(t *planner.Sort, ctx *Context, n int) ([]Operator, error) {
	streams, err := build(t.Child, ctx, n)
	if err != nil {
		return nil, err
	}
	if len(streams) == 1 {
		op := newSortOperator(t, streams[0], newOpMem("ORDER BY buffering", ctx, true))
		return []Operator{ctx.instrument(t, op)}, nil
	}
	sorts := make([]Operator, len(streams))
	for i, s := range streams {
		// Not instrumented per driver: the merge below is the node's output.
		sorts[i] = newSortOperator(t, s, newOpMem("ORDER BY buffering", ctx, true))
	}
	endpoints := newLocalExchange(ctx, sorts, exPassthrough, nil, len(sorts))
	merge := newStreamMergeOperator(t.Keys, endpoints)
	return []Operator{ctx.instrument(t, merge)}, nil
}
