package planner

import (
	"strings"
	"testing"

	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hybrid"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/druid"
	"prestolite/internal/types"
)

// hybridFragments plans a statement over the hybrid table events — history
// in a memory table (no aggregation pushdown, like hive), real time in druid,
// split at ts = 1000 — and returns the rendered fragments: root first, then
// the history side's, then the real-time side's.
func hybridFragments(t *testing.T, query string) []string {
	t.Helper()
	cols := []connector.Column{{Name: "ts", Type: types.Bigint}, {Name: "country", Type: types.Varchar}, {Name: "clicks", Type: types.Bigint}}
	hist := memory.New("hist")
	if err := hist.CreateTable("web", "events_hist", cols, nil); err != nil {
		t.Fatal(err)
	}
	store := druid.NewStore()
	if _, err := store.CreateTable("events_rt", []druid.Column{
		{Name: "ts", Type: types.Bigint}, {Name: "country", Type: types.Varchar}, {Name: "clicks", Type: types.Bigint}}); err != nil {
		t.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("hist", hist)
	reg.Register("druid", druidconn.New("druid", &druid.EmbeddedClient{Store: store}))
	hc := hybrid.New("hybrid", reg)
	if err := hc.AddTable("events", hybrid.TableConfig{
		Historical: connector.HybridPart{Catalog: "hist", Schema: "web", Table: "events_hist"},
		Realtime:   connector.HybridPart{Catalog: "druid", Schema: "default", Table: "events_rt"},
		TimeColumn: "ts",
		Boundary:   1000,
	}); err != nil {
		t.Fatal(err)
	}
	reg.Register("hybrid", hc)

	q := parseQuery(t, query)
	session := &Session{Catalog: "hybrid", Schema: "default", Properties: map[string]string{}}
	n, err := (&Analyzer{Catalogs: reg, Session: session}).Analyze(q)
	if err != nil {
		t.Fatalf("analyze %q: %v", query, err)
	}
	n = (&Optimizer{Catalogs: reg, Session: session}).Optimize(n)
	if err := CheckTypes(n); err != nil {
		t.Fatalf("CheckTypes: %v", err)
	}
	fp := (&Fragmenter{}).Fragment(n)
	out := []string{Format(fp.Root.Root)}
	for id := 1; id <= len(fp.Sources); id++ {
		out = append(out, Format(fp.Sources[id].Root))
	}
	return out
}

func wantAll(t *testing.T, what, plan string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(plan, w) {
			t.Errorf("%s: missing %q:\n%s", what, w, plan)
		}
	}
}

func wantNone(t *testing.T, what, plan string, bans ...string) {
	t.Helper()
	for _, b := range bans {
		if strings.Contains(plan, b) {
			t.Errorf("%s: unexpected %q:\n%s", what, b, plan)
		}
	}
}

// A global and a grouped aggregate over the hybrid union (the benchmark's H1
// and H2: the second reaches the union through a reordering Project) split
// into a FINAL over one partial per side: an engine PARTIAL in the history
// fragment, the connector's own aggregation in the real-time one.
func TestAggregateSplitsThroughUnion(t *testing.T) {
	for name, tc := range map[string]struct{ sql, pushed string }{
		"H1 global":  {"SELECT count(*) AS n, max(ts) AS m FROM events", "aggregationPushdown=[count(), max(ts)] groupBy=[]"},
		"H2 grouped": {"SELECT country, sum(clicks) AS s, count(*) AS n, max(ts) AS m FROM events GROUP BY country", "aggregationPushdown=[sum(clicks), count(), max(ts)] groupBy=[country]"},
	} {
		frags := hybridFragments(t, tc.sql)
		if len(frags) != 3 {
			t.Fatalf("%s: %d fragments, want 3:\n%s", name, len(frags), strings.Join(frags, "\n"))
		}
		wantAll(t, name+" root", frags[0], "Aggregate(FINAL)", "Union[2 sources]", "RemoteSource[fragment 1]", "RemoteSource[fragment 2]")
		wantNone(t, name+" root", frags[0], "Aggregate(SINGLE)", "Aggregate(PARTIAL)", "TableScan")
		if !strings.HasPrefix(frags[1], "- Aggregate(PARTIAL)") {
			t.Errorf("%s: the history fragment does not end in a partial aggregation:\n%s", name, frags[1])
		}
		wantAll(t, name+" history", frags[1], "TableScan[hist.web.events_hist")
		if !strings.HasPrefix(frags[2], "- TableScan[druid.default.events_rt") {
			t.Errorf("%s: the real-time fragment is not the bare scan:\n%s", name, frags[2])
		}
		wantAll(t, name+" real time", frags[2], tc.pushed, "filter[ts >= 1000]")
	}
}

// A predicate that already implies the real-time side's bound (the
// benchmark's H3) prunes history, keeps the final-form pushdown, and carries
// the bound once.
func TestRealtimeOnlyAggregateKeepsFinalPushdown(t *testing.T) {
	frags := hybridFragments(t, "SELECT count(*) AS n, max(ts) AS m FROM events WHERE ts >= 1000")
	if len(frags) != 2 {
		t.Fatalf("%d fragments, want 2:\n%s", len(frags), strings.Join(frags, "\n"))
	}
	wantNone(t, "root", frags[0], "Aggregate", "Union")
	wantAll(t, "real time", frags[1], "aggregationPushdown=[count(), max(ts)] groupBy=[]")
	if n := strings.Count(frags[1], "filter["); n != 1 {
		t.Errorf("the scan carries %d filters, want the one bound:\n%s", n, frags[1])
	}
}

func TestUnionSplitLimits(t *testing.T) {
	// DISTINCT seen-sets do not merge: SINGLE on the coordinator, raw scans below.
	frags := hybridFragments(t, "SELECT count(DISTINCT country) FROM events")
	wantAll(t, "distinct root", frags[0], "Aggregate(SINGLE)", "Union[2 sources]")
	wantNone(t, "distinct", strings.Join(frags, ""), "Aggregate(PARTIAL)", "Aggregate(FINAL)", "aggregationPushdown")

	// avg splits, but its (sum, count) intermediate is not what the connector
	// returns: the real-time side keeps an engine partial over a plain scan.
	frags = hybridFragments(t, "SELECT country, avg(clicks) FROM events GROUP BY country")
	if len(frags) != 3 {
		t.Fatalf("avg: %d fragments, want 3", len(frags))
	}
	wantAll(t, "avg root", frags[0], "Aggregate(FINAL)")
	for _, side := range frags[1:] {
		if !strings.HasPrefix(side, "- Aggregate(PARTIAL)") {
			t.Errorf("avg: side fragment does not end in a partial aggregation:\n%s", side)
		}
		wantNone(t, "avg side", side, "aggregationPushdown")
	}

	// A computed column between the aggregate and the union blocks the rule.
	frags = hybridFragments(t, "SELECT clicks + 1, count(*) FROM events GROUP BY clicks + 1")
	wantAll(t, "computed key root", frags[0], "Aggregate(SINGLE)", "Union[2 sources]")
	wantNone(t, "computed key", strings.Join(frags, ""), "Aggregate(PARTIAL)", "aggregationPushdown")
}
