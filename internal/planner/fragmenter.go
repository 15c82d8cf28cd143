package planner

import (
	"fmt"
)

// The fragmenter divides the physical plan into fragments (§III: "the
// fragmenter divides the plan into fragments. Each running plan fragment is
// called a stage"). Source fragments (scan + filter + project + partial
// aggregation) run as tasks on workers, one or more splits per task; the
// root fragment runs on the coordinator, reading worker output through
// RemoteSource exchanges and performing final aggregation, joins, sort and
// limit.

// Fragment is one executable plan fragment.
type Fragment struct {
	ID   int
	Root Node
	// IsSource marks worker-side fragments driven by table splits.
	IsSource bool
	// TableKey is "catalog.schema.table" for the fragment's scan; the
	// scheduler uses it to route split assignments.
	TableKey string
	// Scan is the fragment's table scan (source fragments only).
	Scan *TableScan
}

// FragmentedPlan is the full decomposition.
type FragmentedPlan struct {
	// Root runs on the coordinator.
	Root *Fragment
	// Sources run on workers, indexed by fragment ID.
	Sources map[int]*Fragment
}

// SingleFragment reports whether the plan has no worker-side work (e.g.
// SELECT 1): the coordinator executes everything.
func (fp *FragmentedPlan) SingleFragment() bool { return len(fp.Sources) == 0 }

// Fragmenter splits plans.
type Fragmenter struct {
	nextID int
}

// Fragment decomposes a plan.
func (f *Fragmenter) Fragment(root Node) *FragmentedPlan {
	fp := &FragmentedPlan{Sources: map[int]*Fragment{}}
	f.nextID = 1
	newRoot := f.rewrite(root, fp)
	fp.Root = &Fragment{ID: 0, Root: newRoot}
	return fp
}

// rewrite replaces maximal scan-local subtrees with RemoteSources.
func (f *Fragmenter) rewrite(n Node, fp *FragmentedPlan) Node {
	// Partial/final aggregation split (Fig 2): Aggregate over a scan-local
	// subtree becomes AggPartial on workers + AggFinal on the coordinator. (An
	// aggregate over a union was already split per side by the optimizer.)
	if agg, ok := n.(*Aggregate); ok && agg.Step == AggSingle && isScanLocal(agg.Child) && scanOf(agg.Child) != nil && !hasDistinct(agg) {
		partial := &Aggregate{Child: agg.Child, GroupBy: agg.GroupBy, Aggs: agg.Aggs, Step: AggPartial}
		frag := f.newSourceFragment(partial, fp)
		return FinalOver(&RemoteSource{FragmentID: frag.ID, Cols: partial.Outputs()}, agg)
	}
	if isScanLocal(n) {
		if scanOf(n) == nil {
			return n // constant-only subtree (Values): keep local
		}
		frag := f.newSourceFragment(n, fp)
		return &RemoteSource{FragmentID: frag.ID, Cols: n.Outputs()}
	}
	// Anything else stays on the coordinator over its fragmented children; a
	// union's sides each become their own source fragment (hybrid tables: one
	// per connector), read back through RemoteSources.
	return mapChildren(n, func(c Node) Node { return f.rewrite(c, fp) })
}

// FinalOver builds the AggFinal that merges, over child, the output of agg's
// PARTIAL form back to agg's result: the group keys are child's first
// channels and each aggregate reads its intermediate from the channel after
// them. The optimizer's union rule, the fragmenter and the execution layer's
// per-driver split all build their FINAL here.
func FinalOver(child Node, agg *Aggregate) *Aggregate {
	groups := len(agg.GroupBy)
	finalAggs := make([]Aggregation, len(agg.Aggs))
	for i, a := range agg.Aggs {
		fa := a
		fa.Args = []int{groups + i} // the intermediate channel
		finalAggs[i] = fa
	}
	return &Aggregate{Child: child, GroupBy: identityChannels(groups), Aggs: finalAggs, Step: AggFinal}
}

func (f *Fragmenter) newSourceFragment(root Node, fp *FragmentedPlan) *Fragment {
	scan := scanOf(root)
	frag := &Fragment{
		ID:       f.nextID,
		Root:     root,
		IsSource: true,
		TableKey: fmt.Sprintf("%s.%s.%s", scan.Catalog, scan.Schema, scan.Table),
		Scan:     scan,
	}
	f.nextID++
	fp.Sources[frag.ID] = frag
	return frag
}

// isScanLocal reports whether the subtree is a scan with only per-row
// operators above it, or a partial aggregation of one: safe to run
// independently per split, since whatever reads a PARTIAL merges it.
func isScanLocal(n Node) bool {
	switch t := n.(type) {
	case *TableScan:
		return true
	case *Values:
		return true
	case *Filter:
		return isScanLocal(t.Child)
	case *Project:
		return isScanLocal(t.Child)
	case *Aggregate:
		return t.Step == AggPartial && isScanLocal(t.Child)
	default:
		return false
	}
}

func scanOf(n Node) *TableScan {
	switch t := n.(type) {
	case *TableScan:
		return t
	case *Filter:
		return scanOf(t.Child)
	case *Project:
		return scanOf(t.Child)
	case *Aggregate:
		return scanOf(t.Child)
	default:
		return nil
	}
}

func hasDistinct(a *Aggregate) bool {
	for _, agg := range a.Aggs {
		if agg.Distinct {
			return true
		}
	}
	return false
}

// FormatFragments renders all fragments for EXPLAIN (DISTRIBUTED).
func FormatFragments(fp *FragmentedPlan) string {
	out := "Fragment 0 (coordinator):\n" + Format(fp.Root.Root)
	for id := 1; id < 1+len(fp.Sources); id++ {
		frag, ok := fp.Sources[id]
		if !ok {
			continue
		}
		out += fmt.Sprintf("Fragment %d (source, table %s):\n%s", frag.ID, frag.TableKey, Format(frag.Root))
	}
	return out
}
