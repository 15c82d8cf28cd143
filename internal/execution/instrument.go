package execution

import (
	"fmt"
	"strings"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
)

// planOperatorIDs assigns stable pre-order ids to every node of a plan.
// Build (when Context.Stats is set) and FormatAnnotated both use this walk,
// so stats recorded during execution line up with the rendered tree — on the
// coordinator and on every worker running the same fragment.
func planOperatorIDs(root planner.Node) map[planner.Node]int {
	ids := map[planner.Node]int{}
	next := 0
	var walk func(n planner.Node)
	walk = func(n planner.Node) {
		ids[n] = next
		next++
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return ids
}

// instrument wraps op so it records rows/bytes out, wall time, page count
// and peak batch size into ctx.Stats. No-op when stats are disabled.
//
// With several drivers one plan node becomes several driver instances; they
// all record into one shared OperatorStats (its fields are atomics), each
// through its own single-writer Recorder, and the node's driver count is
// what EXPLAIN ANALYZE renders as "drivers: N". Wall time therefore sums
// across drivers — cumulative like Presto's operator CPU accounting, so it
// can exceed the query's wall clock.
func (ctx *Context) instrument(node planner.Node, op Operator) Operator {
	if ctx.Stats == nil {
		return op
	}
	st := ctx.opStats[node]
	if st == nil {
		children := node.Children()
		childIDs := make([]int, len(children))
		for i, c := range children {
			childIDs[i] = ctx.ids[c]
		}
		st = ctx.Stats.Register(ctx.ids[node], childIDs)
		if ctx.opStats == nil {
			ctx.opStats = map[planner.Node]*obs.OperatorStats{}
		}
		ctx.opStats[node] = st
	} else {
		st.AddDriver()
	}
	return &statsOperator{child: op, rec: obs.NewRecorder(st)}
}

// statsOperator is the instrumentation wrapper. Wall time is cumulative: a
// parent's Next includes the time its children spend producing input, like
// Presto's operator-level CPU accounting.
type statsOperator struct {
	child Operator
	rec   *obs.Recorder
}

func (o *statsOperator) Next() (*block.Page, error) {
	start := time.Now()
	p, err := o.child.Next()
	o.rec.RecordWall(time.Since(start))
	if err != nil {
		o.rec.Flush() // EOF or failure: publish exact totals
		return nil, err
	}
	if p != nil {
		o.rec.RecordPage(p.Count(), int64(p.SizeBytes()))
	}
	return p, nil
}

func (o *statsOperator) Close() error {
	o.rec.Flush()
	return o.child.Close()
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE rendering.

// FormatAnnotated renders a plan tree like planner.Format, annotating each
// node with the actual statistics recorded during execution (matched by the
// shared pre-order ids). Operators with no recorded stats (e.g. a fragment
// that never ran) render unannotated.
func FormatAnnotated(root planner.Node, snaps []obs.OperatorStatsSnapshot) string {
	byID := make(map[int]obs.OperatorStatsSnapshot, len(snaps))
	for _, s := range snaps {
		byID[s.ID] = s
	}
	ids := planOperatorIDs(root)
	var sb strings.Builder
	var walk func(n planner.Node, depth int)
	walk = func(n planner.Node, depth int) {
		indent := strings.Repeat("    ", depth)
		sb.WriteString(indent)
		sb.WriteString("- ")
		sb.WriteString(n.Describe())
		sb.WriteByte('\n')
		if s, ok := byID[ids[n]]; ok {
			sb.WriteString(indent)
			sb.WriteString("  ")
			sb.WriteString(formatOperatorStats(s))
			sb.WriteByte('\n')
		}
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return sb.String()
}

// NameOperators returns snaps with each operator named by the plan text of
// its node in root, matched by the shared pre-order ids. Stats are recorded
// by id alone; the names are rendered here, where something reads them.
func NameOperators(root planner.Node, snaps []obs.OperatorStatsSnapshot) []obs.OperatorStatsSnapshot {
	nodes := map[int]planner.Node{}
	for n, id := range planOperatorIDs(root) {
		nodes[id] = n
	}
	out := make([]obs.OperatorStatsSnapshot, len(snaps))
	for i, s := range snaps {
		if n, ok := nodes[s.ID]; ok {
			s.Name = n.Describe()
		}
		out[i] = s
	}
	return out
}

// MemoryFooter renders the EXPLAIN ANALYZE memory footer — the query pool's
// peak reservation and spilled bytes, so §XII.C resource behaviour shows up
// next to the plan it belongs to.
func MemoryFooter(pool *resource.Pool) string {
	return fmt.Sprintf("\nMemory: peak %d B, spilled %d B\n", pool.Peak(), pool.Spilled())
}

// formatOperatorStats renders one stats annotation line.
func formatOperatorStats(s obs.OperatorStatsSnapshot) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rows: %d in, %d out (%s), wall: %s, batches: %d (peak %d rows)",
		s.RowsIn, s.RowsOut, formatBytes(s.BytesOut),
		time.Duration(s.WallNanos).Round(time.Microsecond), s.Pages, s.PeakBatchRows)
	if s.Tasks > 1 {
		fmt.Fprintf(&sb, ", tasks: %d", s.Tasks)
	}
	// Drivers accumulate across tasks too; when every task ran serially
	// drivers == tasks and the count adds nothing, so only genuine
	// intra-task parallelism is annotated.
	if s.Drivers > s.Tasks {
		fmt.Fprintf(&sb, ", drivers: %d", s.Drivers)
	}
	return sb.String()
}

// formatBytes humanizes a byte count.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
