package cluster

import (
	"sort"

	"prestolite/internal/connector"
	"prestolite/internal/frame"
	"prestolite/internal/planner"
)

// The plan memo sits above the result cache (§VII): dashboards resend the
// same statement text, so the coordinator keeps each statement's optimized
// plan under that text and the session that planned it. A repeat whose
// tables are all still at the versions it was planned at is neither parsed
// nor planned nor encoded: the memo's bytes already are its result-cache
// key, and on a result-cache miss they decode back to the plan.
//
// What versions cannot vouch for is never memoised, by the result cache's
// rule (keyPlan): a plan that scans no table or a table without a version.
// Nor are EXPLAIN, EXPLAIN ANALYZE and statements that fail.

// planMemoBudget bounds the memo's resident bytes. Over a 20 s run of each
// e2ebench workload the fullest memo held 61 KB (dashboard_repeat's 192
// statements; adhoc_join's held 40 KB, realtime_hybrid's 2 KB): 1 MiB is
// some 17 times that.
const planMemoBudget = 1 << 20

// planMemoEntryBytes is what an entry costs besides its key, its plan and
// its tables: the LRU's map slot, list element and entry header, and the
// entry's own headers. scanTableBytes is a scanTable's, its names aside.
const (
	planMemoEntryBytes = 192
	scanTableBytes     = 56
)

// planEntry is one optimized plan with the tables it scans. resultKey is
// the plan's binary form (its first planLen bytes) followed by each scan's
// snapshot version as a varint, in the order a walk of the plan meets the
// scans: the result cache's key while those versions hold. tables names
// each scan's table and version in the same order; the encoding holds
// each scan's catalog, schema and table, so the versions are named too.
type planEntry struct {
	resultKey string
	planLen   int
	tables    []scanTable
}

// scanTable is a table one scan reads, at the version planning first read
// it at (planner.TableScan.Version).
type scanTable struct {
	catalog, schema, table string
	version                int64
}

// keyPlan is the one key of both coordinator tiers: the plan's entry, or
// ok false — neither memoised nor result-cached — when the plan scans no
// table (nothing pins freshness) or a scan has no version. The plan is
// encoded only once every scan has a version, and a versioned connector's
// handles have a binary form (connector.SnapshotVersioner), so a hybrid
// scan, say, makes a plan unkeyed, never a panic.
func keyPlan(plan planner.Node) (planEntry, bool) {
	var tables []scanTable
	ok := true
	var walk func(n planner.Node)
	walk = func(n planner.Node) {
		if !ok {
			return
		}
		if ts, isScan := n.(*planner.TableScan); isScan {
			if ts.Version < 0 {
				ok = false
				return
			}
			tables = append(tables, scanTable{ts.Catalog, ts.Schema, ts.Table, ts.Version})
		}
		for _, child := range n.Children() {
			walk(child)
		}
	}
	walk(plan)
	if !ok || len(tables) == 0 {
		return planEntry{}, false
	}
	key := planner.Encode(plan)
	planLen := len(key)
	for _, t := range tables {
		key = frame.AppendVarint(key, t.version)
	}
	return planEntry{resultKey: string(key), planLen: planLen, tables: tables}, true
}

// size is what the entry costs the memo's budget under a memo key of
// keyLen bytes.
func (e planEntry) size(keyLen int) int64 {
	n := keyLen + len(e.resultKey) + planMemoEntryBytes
	for _, t := range e.tables {
		n += len(t.catalog) + len(t.schema) + len(t.table) + scanTableBytes
	}
	return int64(n)
}

// current reports whether every table e scans is still at the version it
// was planned at.
func (c *Coordinator) current(e planEntry) bool {
	for _, t := range e.tables {
		conn, err := c.Catalogs.Get(t.catalog)
		if err != nil || connector.TableVersion(conn, t.schema, t.table) != t.version {
			return false
		}
	}
	return true
}

// memoise keeps the plan of a statement that has succeeded, unless the
// statement has no memoKey: its plan came from the memo, or it is EXPLAIN
// ANALYZE.
func (c *Coordinator) memoise(st statement, e planEntry) {
	if st.memoKey != "" {
		c.planMemo.PutSized(st.memoKey, e, e.size(len(st.memoKey)))
	}
}

// decodePlan reads e's plan back, each scan with the version it was
// planned at.
func (c *Coordinator) decodePlan(e planEntry) (planner.Node, error) {
	plan, err := planner.Decode([]byte(e.resultKey[:e.planLen]), c.Catalogs)
	if err != nil {
		return nil, err
	}
	next := 0
	var walk func(n planner.Node)
	walk = func(n planner.Node) {
		if ts, isScan := n.(*planner.TableScan); isScan {
			ts.Version = e.tables[next].version
			next++
		}
		for _, child := range n.Children() {
			walk(child)
		}
	}
	walk(plan)
	return plan, nil
}

// planMemoKey is the statement exactly as received, then what else
// planning reads from the session: its catalog, its schema and every
// property in name order. Each part is length-prefixed, so no two sessions
// share a key.
func planMemoKey(session *planner.Session, query string) string {
	key := frame.AppendString(make([]byte, 0, len(query)+len(session.Catalog)+len(session.Schema)+16), query)
	key = frame.AppendString(frame.AppendString(key, session.Catalog), session.Schema)
	if len(session.Properties) > 0 {
		names := make([]string, 0, len(session.Properties))
		for name := range session.Properties {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			key = frame.AppendString(frame.AppendString(key, name), session.Properties[name])
		}
	}
	return string(key)
}
