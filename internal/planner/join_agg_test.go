package planner

import (
	"bytes"
	"strings"
	"testing"
)

// An aggregate over t JOIN u whose arguments read t groups t by its join key
// and its own group key below the join; u's key is computed above it.
func TestAggregationThroughJoinPlan(t *testing.T) {
	got := Format(plan(t, "SELECT t.b, u.d, sum(t.c), max(t.c) FROM t JOIN u ON t.a = u.a GROUP BY t.b, u.d", true))
	want := `- Output[b, d, sum(t.c), max(t.c)]
    - Aggregate(FINAL)[keys=[b, d]; sum(t.c) := sum(sum(t.c)), max(t.c) := max(max(t.c))]
        - Project[b := t.b, d := u.d, sum(t.c) := sum(t.c), max(t.c) := max(t.c)]
            - INNERJoin[a = a]
                - Aggregate(PARTIAL)[keys=[a, b]; sum(t.c) := sum(c), max(t.c) := max(c)]
                    - TableScan[memory.s.t, memory:s.t] => [a, b, c]
                - TableScan[memory.s.u, memory:s.u] => [a, d]
`
	if got != want {
		t.Errorf("plan:\n%s\nwant:\n%s", got, want)
	}
}

// The rule leaves alone what it cannot split or would split wrongly.
func TestAggregationThroughJoinDoesNotFire(t *testing.T) {
	for name, q := range map[string]string{
		"distinct":          "SELECT u.d, count(DISTINCT t.b) FROM t JOIN u ON t.a = u.a GROUP BY u.d",
		"left join":         "SELECT u.d, count(*) FROM t LEFT JOIN u ON t.a = u.a GROUP BY u.d",
		"cross join":        "SELECT u.d, count(*) FROM t CROSS JOIN u GROUP BY u.d",
		"residual":          "SELECT u.d, count(*) FROM t JOIN u ON t.a = u.a AND t.b <> u.d GROUP BY u.d",
		"argument on both":  "SELECT u.d, sum(t.a + u.a) FROM t JOIN u ON t.a = u.a GROUP BY u.d",
		"arguments split":   "SELECT sum(t.c), max(u.d) FROM t JOIN u ON t.a = u.a",
		"group key on both": "SELECT t.b || u.d, count(*) FROM t JOIN u ON t.a = u.a GROUP BY t.b || u.d",
		// Below the join these would also run on rows it drops, and may fail.
		"integer division":        "SELECT u.d, sum(10 / t.a) FROM t JOIN u ON t.a = u.a GROUP BY u.d",
		"integer modulus":         "SELECT u.d, sum(t.a % 3) FROM t JOIN u ON t.a = u.a GROUP BY u.d",
		"cast":                    "SELECT u.d, sum(CAST(t.b AS double)) FROM t JOIN u ON t.a = u.a GROUP BY u.d",
		"group key that may fail": "SELECT 10 / t.a, count(*) FROM t JOIN u ON t.a = u.a GROUP BY 10 / t.a",
	} {
		got := Format(plan(t, q, true))
		wantAll(t, name, got, "Aggregate(SINGLE)")
		wantNone(t, name, got, "Aggregate(PARTIAL)", "Aggregate(FINAL)")
	}
	var single *Aggregate
	rewrite(plan(t, "SELECT u.d, count(*) FROM t JOIN u ON t.a = u.a GROUP BY u.d", false), func(n Node) Node {
		if a, ok := n.(*Aggregate); ok {
			single = a
		}
		return n
	})
	for _, step := range []AggStep{AggPartial, AggFinal} {
		agg := *single
		agg.Step = step
		if out := pushAggregationThroughJoin(&agg); out != Node(&agg) {
			t.Errorf("an Aggregate(%s) was split again:\n%s", step, Format(out))
		}
	}
}

// The projection pushed below the join names the columns it reads, and
// aggregates over one argument share its channel.
func TestAggregationThroughJoinProjection(t *testing.T) {
	got := Format(planTrips(t, tripsCatalogs(t), "SELECT c.region, min(t.base.fare), max(t.base.fare), sum(t.base.fare + t.base.tip), avg(t.base.fare + t.base.tip) FROM trips t JOIN cities c ON t.base.city_id = c.city_id GROUP BY c.region"))
	wantAll(t, "pushed projection", got, "Project[$joinkey0 := base.city_id, fare := base.fare, (t.base.fare + t.base.tip) := (base.fare + base.tip)]")
	wantNone(t, "pushed projection", got, "$joinkey0 := $joinkey0")
	// Double division yields NaN or ±Inf, never an error: it moves.
	got = Format(plan(t, "SELECT u.d, sum(t.c / 0.0) FROM t JOIN u ON t.a = u.a GROUP BY u.d", true))
	wantAll(t, "double division", got, "Aggregate(PARTIAL)")
}

// Grouping by t.a and u.a in either order must give two result-cache keys —
// the key starts with the plan's encoding — and print two plans, though both
// columns are named a.
func TestAggregationThroughJoinKeepsQualifiers(t *testing.T) {
	firstPlan := plan(t, "SELECT t.a AS x, u.a AS y, count(*) FROM t JOIN u ON t.b = u.d GROUP BY t.a, u.a", true)
	swappedPlan := plan(t, "SELECT u.a AS x, t.a AS y, count(*) FROM t JOIN u ON t.b = u.d GROUP BY u.a, t.a", true)
	first, swapped := Format(firstPlan), Format(swappedPlan)
	wantAll(t, "first", first, "Aggregate(PARTIAL)")
	if bytes.Equal(Encode(firstPlan), Encode(swappedPlan)) {
		t.Errorf("swapped group keys encode to the same plan:\n%s", first)
	}
	if first == swapped {
		t.Errorf("swapped group keys print the same plan:\n%s", first)
	}
}

// Q10–Q21 distributed: the trips fragment ends in the partial aggregation,
// and the coordinator's fragment joins partial rows and merges them. Q14's
// partial sits above its first join, on the coordinator.
func TestFig17JoinsAggregateBesideTheScan(t *testing.T) {
	reg := tripsCatalogs(t)
	for i, q := range derefShapes[9:21] {
		fp := (&Fragmenter{}).Fragment(planTrips(t, reg, q))
		root := Format(fp.Root.Root)
		wantAll(t, q, root, "Aggregate(FINAL)", "INNERJoin")
		var trips string
		for _, f := range fp.Sources {
			if f.Scan.Table == "trips" {
				trips = Format(f.Root)
			}
		}
		if i+10 == 14 {
			wantAll(t, q, root, "Aggregate(PARTIAL)")
			continue
		}
		wantNone(t, q, root, "Aggregate(PARTIAL)", "Aggregate(SINGLE)")
		if !strings.HasPrefix(trips, "- Aggregate(PARTIAL)") {
			t.Errorf("%s\nthe trips fragment does not end in a partial aggregation:\n%s", q, trips)
		}
	}
}
