package e2ebench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/core"
	"prestolite/internal/druid"
	"prestolite/internal/fsys"
	"prestolite/internal/gateway"
	"prestolite/internal/obs"
	"prestolite/internal/parquet"
	"prestolite/internal/planner"
	"prestolite/internal/sql"
)

// Span is one timed call, recorded from outside the program around a call
// into a layer's public API. Spans of one statement share TraceID; ParentID
// 0 marks the statement's root. Times are nanoseconds since the recorder was
// created.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   int    `json:"span_id"`
	ParentID int    `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// SpanRecorder keeps spans in memory until the benchmark ends.
type SpanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func NewSpanRecorder() *SpanRecorder { return &SpanRecorder{epoch: time.Now()} }

// open starts a span and returns its id; close ends it.
func (r *SpanRecorder) open(trace string, parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{TraceID: trace, SpanID: len(r.spans) + 1, ParentID: parent, Name: name, StartNS: int64(time.Since(r.epoch))})
	return len(r.spans)
}

func (r *SpanRecorder) close(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = int64(time.Since(r.epoch))
	return time.Duration(s.EndNS - s.StartNS)
}

// Spans returns a copy of everything recorded so far.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as one JSON array.
func (r *SpanRecorder) WriteFile(path string) error {
	data, err := json.MarshalIndent(r.Spans(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracePasses is how many passes over the workload's templates the traced
// pass makes at most. After the first, a pass starts only while the traced
// pass has used less than a third of the measured window's length, so it
// stays a bounded appendix of the run.
const tracePasses = 3

// tracer times the layer ladder and the direct layer calls for one
// statement at a time, under one root span each.
type tracer struct {
	r        *runner
	rec      *SpanRecorder
	gwClient *gateway.Client
	trace    string
	root     int
	traces   int

	// obs collects one value per traced statement under the per-layer metric
	// it feeds; tracedPass reports each metric's median.
	obs map[string][]float64
	// Observations that feed a metric only through arithmetic.
	l5plain, druidConnectorMS        []float64
	hiveScanBytes, hiveScanSeconds   float64
	parquetDecodedBytes, parquetSecs float64
	parquetSampled                   bool
}

// timed runs fn under a child span of the current statement and returns how
// long it took.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	id := t.rec.open(t.trace, t.root, name)
	err := fn()
	d := t.rec.close(id)
	if err != nil {
		return d, fmt.Errorf("traced %s: %w", name, err)
	}
	return d, nil
}

// observe records one traced statement's value for a per-layer metric.
func (t *tracer) observe(metric string, v float64) { t.obs[metric] = append(t.obs[metric], v) }

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// tracedPass runs after the measured window, on one client: up to three
// passes over the workload's templates, each statement executed at every
// rung of the ladder and then taken apart layer by layer. End-to-end metrics
// never come from here.
func tracedPass(r *runner, ms *metricSet) error {
	rec := r.cfg.Spans
	if rec == nil {
		rec = NewSpanRecorder()
	}
	t := &tracer{r: r, rec: rec, gwClient: r.sc.stack.newClient(), obs: map[string][]float64{}}
	start := time.Now()
	for pass := 0; pass < tracePasses; pass++ {
		if pass > 0 && time.Since(start) > r.cfg.Window/3 {
			break
		}
		for _, st := range r.sc.traced(pass) {
			if err := t.statement(st); err != nil {
				return err
			}
		}
	}

	for metric, values := range t.obs {
		ms.setN(metric, median(values), len(values))
	}
	// Rungs are sibling executions, so a layer between two rungs is the
	// difference of their medians.
	rung := func(metric string) float64 { return median(t.obs[metric]) }
	l2, l3 := rung("core.embedded_ms"), rung("cluster.coordinator_direct_ms")
	l4, l5 := rung("cluster.coordinator_http_ms"), rung("gateway.execute_ms")
	ms.set("gateway.hop_delta_ms", l5-l4)
	ms.set("cluster.http_delta_ms", l4-l3)
	ms.set("cluster.distributed_delta_ms", l3-l2)
	ms.set("hive.scan_mb_per_s", ratio(t.hiveScanBytes/mb, t.hiveScanSeconds))
	ms.set("parquet.decode_mb_per_s", ratio(t.parquetDecodedBytes/mb, t.parquetSecs))
	ms.set("druid.connector_delta_ms", median(t.druidConnectorMS)-rung("druid.native_ms"))
	ms.set("trace.overhead_share", ratio(l5, median(t.l5plain))-1)
	return nil
}

// statement traces one statement: the gateway's routing decision, the four
// ladder rungs as sibling executions, then each layer's public entry points.
func (t *tracer) statement(st Statement) error {
	sc := t.r.sc
	t.traces++
	t.trace = fmt.Sprintf("%s-%04d", t.r.cfg.Workload, t.traces)
	t.root = t.rec.open(t.trace, 0, fmt.Sprintf("statement template=%d", st.Template))
	defer t.rec.close(t.root)

	// Which cluster serves this statement: the lower rungs must talk to the
	// same one, whose caches this session warmed.
	var addr string
	d, err := t.timed("gateway.ResolveSession", func() (err error) {
		addr, err = sc.stack.gw.ResolveSession(benchUser, "", st.Session)
		return err
	})
	if err != nil {
		return err
	}
	t.observe("gateway.resolve_us", usOf(d))
	var nd *node
	for _, n := range sc.stack.nodes {
		if n.coord.Addr() == addr {
			nd = n
		}
	}
	if nd == nil {
		return fmt.Errorf("gateway resolved %s to unknown cluster %s", st.Session, addr)
	}
	catalogs := nd.coord.Catalogs
	req := sc.request(st)

	// The ladder. L2 is the single-driver embedded engine (the oracle's
	// configuration), so L2 minus the serial scan below is kernel time. The
	// upper rungs rotate their order per statement, so cache warmth left by
	// one rung does not always favour the same neighbour.
	embedded := &core.Engine{Catalogs: catalogs, Obs: obs.NewRegistry()}
	serial := sc.session()
	serial.Properties["task_concurrency"] = "1"
	d, err = t.timed("L2 core.Engine.Query", func() error { _, err := embedded.Query(serial, st.SQL); return err })
	if err != nil {
		return err
	}
	l2 := msOf(d)
	t.observe("core.embedded_ms", l2)

	direct := cluster.NewClient(nd.coord.Addr())
	var result *cluster.QueryResult
	var l5 float64
	rungs := []func() error{
		func() error {
			d, err := t.timed("L3 cluster.Coordinator.Query", func() error { _, err := nd.coord.Query(sc.session(), st.SQL); return err })
			t.observe("cluster.coordinator_direct_ms", msOf(d))
			return err
		},
		func() error {
			d, err := t.timed("L4 cluster.Client.QueryWithSession", func() error {
				_, err := direct.QueryWithSession(req, benchUser, "", st.Session)
				return err
			})
			t.observe("cluster.coordinator_http_ms", msOf(d))
			return err
		},
		func() error {
			d, err := t.timed("L5 gateway.Client.ExecuteSession", func() (err error) {
				result, err = t.gwClient.ExecuteSession(req, benchUser, "", st.Session)
				return err
			})
			l5 = msOf(d)
			t.observe("gateway.execute_ms", l5)
			return err
		},
		func() error { // L5 again with no span around it: the tracing overhead baseline
			start := time.Now()
			_, err := t.gwClient.ExecuteSession(req, benchUser, "", st.Session)
			t.l5plain = append(t.l5plain, msOf(time.Since(start)))
			return err
		},
	}
	for i := range rungs {
		if err := rungs[(i+t.traces)%len(rungs)](); err != nil {
			return err
		}
	}

	// Front end, one public call per span.
	var stmt sql.Statement
	parse, err := t.timed("sql.Parse", func() (err error) { stmt, err = sql.Parse(st.SQL); return err })
	if err != nil {
		return err
	}
	query, ok := stmt.(*sql.Query)
	if !ok {
		return fmt.Errorf("traced statement is a %T, not a query", stmt)
	}
	var plan planner.Node
	analyze, err := t.timed("planner.Analyzer.Analyze", func() (err error) {
		plan, err = (&planner.Analyzer{Catalogs: catalogs, Session: sc.session()}).Analyze(query)
		return err
	})
	if err != nil {
		return err
	}
	optimize, _ := t.timed("planner.Optimizer.Optimize", func() error { // Optimize cannot fail
		plan = (&planner.Optimizer{Catalogs: catalogs, Session: sc.session()}).Optimize(plan)
		return nil
	})
	var fp *planner.FragmentedPlan
	fragment, _ := t.timed("planner.Fragmenter.Fragment", func() error { // Fragment cannot fail
		fp = (&planner.Fragmenter{}).Fragment(plan)
		return nil
	})
	t.observe("sql.parse_us", usOf(parse))
	t.observe("planner.analyze_us", usOf(analyze))
	t.observe("planner.optimize_us", usOf(optimize))
	t.observe("planner.fragment_us", usOf(fragment))
	t.observe("planner.fragments_per_query", float64(1+len(fp.Sources)))

	// Connectors: enumerate and serially drain every scan of the plan.
	scans, err := t.scans(plan, catalogs)
	if err != nil {
		return err
	}

	// Page codec over the statement's own result pages.
	for _, data := range result.Pages {
		var page *block.Page
		dec, err := t.timed("block.DecodePage", func() (err error) { page, err = block.DecodePage(data); return err })
		if err != nil {
			return err
		}
		enc, err := t.timed("block.EncodePage", func() error { _, err := block.EncodePage(page); return err })
		if err != nil {
			return err
		}
		t.observe("block.decode_us_per_page", usOf(dec))
		t.observe("block.encode_us_per_page", usOf(enc))
		if page.Count() > 0 {
			t.observe("block.encoded_bytes_per_row", float64(len(data))/float64(page.Count()))
		}
	}

	// L2 and the serial drain are the same single-driver configuration, and
	// L2 always executes (the embedded engine has no result cache), so what
	// the direct calls leave of L2 is the operators' own time: the part of a
	// request only spans inside the engine can name. Everything above L2 is
	// named by a rung difference. The share is taken of L2, not of L5: two
	// workers overlap storage waits that one driver pays in turn, and a result
	// cache answers in microseconds, so L5 is no measure of the serial calls.
	// It is negative where the drain, which materializes every column, does
	// more than the engine's own lazy scan did.
	kernel := l2 - msOf(parse+analyze+optimize+scans)
	t.observe("execution.kernel_ms", kernel)
	t.observe("trace.unattributed_share", kernel/l2)
	return nil
}

// scans walks the optimized plan and, for every table scan, times split
// enumeration and a serial drain of every split's page source. It returns
// the total time spent.
func (t *tracer) scans(plan planner.Node, catalogs *connector.Registry) (time.Duration, error) {
	var total, hiveSplitTime, hiveScanTime time.Duration
	var hiveSplits, hiveRows, hiveBytes int
	sawHive := false
	var walk func(n planner.Node) error
	walk = func(n planner.Node) error {
		scan, ok := n.(*planner.TableScan)
		if !ok {
			for _, c := range n.Children() {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		conn, err := catalogs.Get(scan.Catalog)
		if err != nil {
			return err
		}
		var splits []connector.Split
		enumerate, err := t.timed("connector.SplitManager.Splits "+scan.Catalog, func() (err error) {
			splits, err = conn.SplitManager().Splits(scan.Handle)
			return err
		})
		if err != nil {
			return err
		}
		rows, bytes := 0, 0
		drain, err := t.timed("connector.PageSource drain "+scan.Catalog, func() error {
			for _, sp := range splits {
				src, err := conn.RecordSetProvider().CreatePageSource(scan.Handle, sp, scan.ColumnOrdinals)
				if err != nil {
					return err
				}
				for {
					p, err := src.Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						_ = src.Close() // already failing: the read error is the one to report
						return err
					}
					p = block.MaterializePage(p) // charge lazy column decode here
					rows += p.Count()
					bytes += p.SizeBytes()
				}
				if err := src.Close(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		total += enumerate + drain
		switch conn.(type) {
		case *hive.Connector:
			sawHive = true
			hiveSplitTime += enumerate
			hiveScanTime += drain
			hiveSplits += len(splits)
			hiveRows += rows
			hiveBytes += bytes
			if !t.parquetSampled && len(splits) > 0 {
				t.parquetSampled = true
				if err := t.parquetDecode(splits[0].(*hive.Split).Path); err != nil {
					return err
				}
			}
		case *druidconn.Connector:
			t.druidConnectorMS = append(t.druidConnectorMS, msOf(drain))
			if h, ok := scan.Handle.(*druidconn.TableHandle); ok && t.r.sc.stack.druid != nil {
				native, err := t.timed("druid.Store.Execute", func() error {
					_, err := t.r.sc.stack.druid.Execute(nativeQuery(h))
					return err
				})
				if err != nil {
					return err
				}
				t.observe("druid.native_ms", msOf(native))
			}
		}
		return nil
	}
	if err := walk(plan); err != nil {
		return 0, err
	}
	if sawHive {
		t.observe("hive.splits_us", usOf(hiveSplitTime))
		t.observe("hive.splits_per_query", float64(hiveSplits))
		t.observe("hive.scan_ms", msOf(hiveScanTime))
		t.observe("hive.scan_rows_per_query", float64(hiveRows))
		t.hiveScanBytes += float64(hiveBytes)
		t.hiveScanSeconds += hiveScanTime.Seconds()
	}
	return total, nil
}

// nativeQuery is the druid query the connector sends for a pushed-down
// handle (druidconn's CreatePageSource builds the same one).
func nativeQuery(h *druidconn.TableHandle) druid.Query {
	q := druid.Query{Table: h.Table, Filters: h.Filters, Limit: h.Limit}
	switch {
	case h.AggPushed:
		q.GroupBy, q.Aggregations = h.GroupByNames, h.Aggregations
	case h.Projection != nil:
		for _, ord := range h.Projection {
			q.Columns = append(q.Columns, h.Columns[ord].Name)
		}
	default:
		for _, c := range h.Columns {
			q.Columns = append(q.Columns, c.Name)
		}
	}
	return q
}

// parquetDecode reads one warehouse file into memory and times
// parquet.NewReader over it with every column and every leaf decoded, so the
// number is the decoder's, not the storage's.
func (t *tracer) parquetDecode(path string) error {
	f, err := t.r.sc.stack.fs.Open(path)
	if err != nil {
		return err
	}
	data := make([]byte, f.Size())
	_, err = f.ReadAt(data, 0)
	_ = f.Close() // read-only handle
	if err != nil {
		return err
	}
	bytes := 0
	d, err := t.timed("parquet.Reader all leaves", func() error {
		r, err := parquet.NewReader(&fsys.BytesFile{Data: data}, parquet.AllOptimizations(nil, nil))
		if err != nil {
			return err
		}
		for {
			p, err := r.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			bytes += block.MaterializePage(p).SizeBytes()
		}
	})
	t.parquetDecodedBytes, t.parquetSecs = float64(bytes), d.Seconds()
	return err
}
