package e2ebench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/workload"
)

// benchmarkSpec is the part of BENCHMARK.json the tests read.
type benchmarkSpec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogueMatchesBenchmarkJSON: BENCHMARK.json and the Go catalogue
// list the same workloads and the same metrics with the same units, and
// every name is one the driver accepts.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, package has %v", names, Workloads)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, c := range []struct {
		what string
		spec []specMetric
		defs []MetricDef
	}{{"end_to_end", spec.EndToEnd, EndToEnd}, {"per_layer", spec.PerLayer, PerLayer}} {
		var want []specMetric
		for _, d := range c.defs {
			want = append(want, specMetric{d.Name, d.Unit})
		}
		for _, m := range c.spec {
			if !valid.MatchString(m.Name) {
				t.Errorf("%s name %q is not a valid metric name", c.what, m.Name)
			}
		}
		if !reflect.DeepEqual(c.spec, want) {
			t.Errorf("BENCHMARK.json %s differs from the package catalogue:\n json %v\n code %v", c.what, c.spec, want)
		}
	}
}

// TestSmoke runs every workload at tiny scale with both metric sets: every
// end-to-end metric emitted and positive, per-layer metrics emitted by the
// workloads they apply to and by no other, only listed names with their
// units, every response correct, and a span file that parses into trees.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			rec := NewSpanRecorder()
			rep, err := Run(Config{
				Workload: w, Seed: 1, Window: time.Second,
				EndToEnd: true, Layers: true, Tiny: true, TmpDir: t.TempDir(), Spans: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			// Every workload emits every end-to-end metric, positive; of the
			// per-layer metrics it emits the ones that apply to it, under
			// listed names (an unlisted name panics in metricSet).
			checkUnits(t, "end-to-end", rep.EndToEnd, EndToEnd)
			checkUnits(t, "per-layer", rep.PerLayer, PerLayer)
			for _, d := range EndToEnd {
				if m, ok := rep.EndToEnd[d.Name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (emitted: %v), must be emitted and positive", d.Name, m.Value, ok)
				}
			}
			for _, name := range []string{"failed_share", "gateway.execute_ms", "cluster.coordinator_direct_ms", "core.embedded_ms", "sql.parse_us", "planner.optimize_us", "process.cpu_ms_per_query", "trace.overhead_share", "trace.unattributed_share"} {
				if _, ok := rep.PerLayer[name]; !ok {
					t.Errorf("per-layer metric %s was not emitted, want it on every workload", name)
				}
			}
			for name, only := range map[string]string{
				"freshness_p50_ms": "realtime_hybrid", "ingest_rows_per_s": "realtime_hybrid", "druid.native_ms": "realtime_hybrid",
				"loadgen.late_p95_ms": "realtime_hybrid", "cache.result_hit_share": "dashboard_repeat", "cache.fragment_hit_share": "dashboard_repeat",
			} {
				if _, ok := rep.PerLayer[name]; ok != (only == w) {
					t.Errorf("per-layer metric %s emitted: %v, but it applies to %s only", name, ok, only)
				}
			}

			path := filepath.Join(t.TempDir(), "spans.json")
			if err := rec.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var spans []Span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			if len(spans) == 0 {
				t.Fatal("traced pass recorded no spans")
			}
			trace := map[int]string{}
			for _, s := range spans {
				trace[s.SpanID] = s.TraceID
			}
			for _, s := range spans {
				if s.EndNS < s.StartNS {
					t.Errorf("span %d (%s) ends before it starts", s.SpanID, s.Name)
				}
				if s.ParentID != 0 && trace[s.ParentID] != s.TraceID {
					t.Errorf("span %d (%s) has parent %d, which is not a span of trace %s", s.SpanID, s.Name, s.ParentID, s.TraceID)
				}
			}
		})
	}
}

func checkUnits(t *testing.T, what string, got map[string]Metric, listed []MetricDef) {
	t.Helper()
	units := map[string]string{}
	for _, d := range listed {
		units[d.Name] = d.Unit
	}
	for name, m := range got {
		if unit, ok := units[name]; !ok || m.Unit != unit {
			t.Errorf("%s metric %s has unit %q, listed: %v with unit %q", what, name, m.Unit, ok, unit)
		}
	}
}

func streams(seed int64) map[string]Stream {
	return map[string]Stream{
		"adhoc_scan_agg":   templateStream(scanAggTemplates(), seed),
		"adhoc_join":       templateStream(joinTemplates(), seed),
		"dashboard_repeat": dashStream(seed),
		"realtime_hybrid":  templateStream(hybridTemplates(), seed),
	}
}

// TestStreamsAreDeterministic: a (workload, seed) pair always yields the same
// statements; another seed keeps the template mix and changes the literals;
// no adhoc statement makes up more than the stated 5% of a window.
func TestStreamsAreDeterministic(t *testing.T) {
	const n = 576 * 20 // whole cycles of every workload's statement list (9, 12, 192, 3)
	for _, w := range Workloads {
		a, b, other := streams(1)[w], streams(1)[w], streams(2)[w]
		mixA, mixOther := map[int]int{}, map[int]int{}
		repeats := map[string]int{}
		differs := false
		for i := int64(0); i < n; i++ {
			sa, so := a(i), other(i)
			if sb := b(i); sa != sb {
				t.Fatalf("%s: request %d differs between two streams of seed 1: %q vs %q", w, i, sa.SQL, sb.SQL)
			}
			mixA[sa.Template]++
			mixOther[so.Template]++
			repeats[sa.SQL]++
			differs = differs || sa.SQL != so.SQL
		}
		if !reflect.DeepEqual(mixA, mixOther) {
			t.Errorf("%s: template mix depends on the seed: %v vs %v", w, mixA, mixOther)
		}
		if !differs && w != "realtime_hybrid" { // the hybrid statements have no literals to draw
			t.Errorf("%s: seeds 1 and 2 produce the same statements", w)
		}
		if w == "adhoc_scan_agg" || w == "adhoc_join" {
			for sql, c := range repeats {
				if float64(c) > 0.05*n {
					t.Errorf("%s: %q is %.1f%% of the window, stated share is at most 5%%", w, sql, 100*float64(c)/n)
				}
			}
		}
	}
	if !reflect.DeepEqual(dashBounds(1), dashBounds(1)) || reflect.DeepEqual(dashBounds(1), dashBounds(2)) {
		t.Error("dashboard session literals must depend on the seed and nothing else")
	}
	if a, b := workload.MakeStreamEvent(1, 77, time.Time{}), workload.MakeStreamEvent(1, 77, time.Time{}); a != b {
		t.Errorf("event 77 of seed 1 differs between calls: %v vs %v", a, b)
	}
}

// TestReferenceAnswersRepeat: two independently generated warehouses give
// the reference engine the same answer to every statement, digest for digest.
func TestReferenceAnswersRepeat(t *testing.T) {
	answers := func() map[string]expectation {
		nn, ms := hdfs.New(hdfs.Config{}), metastore.New()
		if _, err := workload.BuildTripsWarehouse(ms, nn, tripsConfig(true, 0)); err != nil {
			t.Fatal(err)
		}
		out, err := referenceAnswers(append(scanAggTemplates(), joinTemplates()...), ms, nn)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := answers(), answers()
	for sql, want := range a {
		if diff := want.matches(b[sql]); diff != "" {
			t.Errorf("%s: %s", shortSQL(sql), diff)
		}
	}
}

// TestGoldenCoversEveryStatement: the checked-in golden file answers every
// statement the adhoc workloads can draw and still matches the lineitem and
// event generators.
func TestGoldenCoversEveryStatement(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range append(scanAggTemplates(), joinTemplates()...) {
		for _, sql := range tpl.variants {
			if e, ok := g.Statements[sql]; !ok || e.Rows == 0 {
				t.Errorf("golden.json has no answer for %q", sql)
			}
		}
	}
	if diff := g.Lineitem.matches(lineitemPin()); diff != "" {
		t.Errorf("lineitem generator moved away from golden.json: %s", diff)
	}
	if diff := g.Events.matches(eventsPin()); diff != "" {
		t.Errorf("event generator moved away from golden.json: %s", diff)
	}
}

// TestExpectationTolerance: small results compare floats within tolerance and
// everything else exactly; large results compare by order-insensitive digest.
func TestExpectationTolerance(t *testing.T) {
	a := expectation{Rows: 1, Values: [][]string{{cell("k"), cell(100.0)}}}
	if d := a.matches(expectation{Rows: 1, Values: [][]string{{cell("k"), cell(100.0 + 1e-9)}}}); d != "" {
		t.Errorf("float jitter rejected: %s", d)
	}
	if d := a.matches(expectation{Rows: 1, Values: [][]string{{cell("k"), cell(100.1)}}}); d == "" {
		t.Error("a different float was accepted")
	}
	if d := a.matches(expectation{Rows: 1, Values: [][]string{{cell("j"), cell(100.0)}}}); d == "" {
		t.Error("a different key was accepted")
	}
	rows := [][]any{{int64(1), "a", 1.5}, {int64(2), "b", nil}, {int64(2), "b", nil}}
	swapped := [][]any{rows[2], rows[0], rows[1]}
	if rowsExpectation(rows).Digest != rowsExpectation(swapped).Digest {
		t.Error("row digest depends on row order")
	}
	if rowsExpectation(rows).Digest == rowsExpectation(rows[:2]).Digest {
		t.Error("row digest ignores multiplicity")
	}
}
