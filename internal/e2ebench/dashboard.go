package e2ebench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/gateway"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/tpch"
)

// dashShape sizes dashboard_repeat. Data seeds are fixed (the golden file
// pins the rows); the benchmark seed only draws session literals and order.
type dashShape struct {
	files       int // initial files, one page each
	rowsPerFile int
	appendRows  int
	// appendEvery is the request count between appended partitions. Each
	// append bumps the table's snapshot version, so each of the 192
	// statements misses every cache tier once: 192/6400 = 3% of requests
	// take the miss path, on any host.
	appendEvery int64
}

const (
	dashDataSeed   = int64(7)
	dashAppendSeed = int64(1000)
)

func dashboardShape(tiny bool) dashShape {
	if tiny {
		return dashShape{files: 3, rowsPerFile: 200, appendRows: 50, appendEvery: 600}
	}
	return dashShape{files: 12, rowsPerFile: 2000, appendRows: 500, appendEvery: 6400}
}

func (s dashShape) initialRows() [][]any {
	var rows [][]any
	for f := 0; f < s.files; f++ {
		rows = append(rows, tpch.GenerateRows(dashDataSeed+int64(f), s.rowsPerFile)...)
	}
	return rows
}

func (s dashShape) appendedRows(k int) [][]any {
	return tpch.GenerateRows(dashAppendSeed+int64(k), s.appendRows)
}

// lineitemPin is the golden file's checksum of the generated lineitem rows:
// the initial files and the first appended one.
func lineitemPin() expectation {
	s := dashboardShape(false)
	return rowsExpectation(append(s.initialRows(), s.appendedRows(0)...))
}

func lineitemPage(rows [][]any) *block.Page {
	pb := block.NewPageBuilder(tpch.ColumnTypes())
	for _, r := range rows {
		pb.AppendRow(r)
	}
	return pb.Build()
}

// buildDashboard: 32 sessions x 6 tiles through a sticky gateway over two
// clusters (coordinator + 2 workers each) with result, fragment and chunk
// caches on. Storage RTTs are zero: the miss path is engine work.
func buildDashboard(cfg Config) (*scenario, error) {
	shape := dashboardShape(cfg.Tiny)
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: nn}
	cols := make([]metastore.Column, len(tpch.LineItemColumns))
	for i, c := range tpch.LineItemColumns {
		cols[i] = metastore.Column{Name: c.Name, Type: c.Type}
	}
	initial := shape.initialRows()
	var pages []*block.Page
	for f := 0; f < shape.files; f++ {
		pages = append(pages, lineitemPage(initial[f*shape.rowsPerFile:(f+1)*shape.rowsPerFile]))
	}
	if err := loader.CreatePartitionedTable("tpch", "lineitem", cols, "batch",
		map[string][]*block.Page{"initial": pages}, map[string]bool{"initial": true}); err != nil {
		return nil, err
	}

	st := &stack{fs: nn}
	st.counters = func(c map[string]float64) { hdfsCounters(c, nn) }
	registry := func() *connector.Registry {
		h := hive.New("hive", ms, nn, hive.Options{})
		st.hives = append(st.hives, h)
		reg := connector.NewRegistry()
		reg.Register("hive", h)
		return reg
	}
	for i := 0; i < 2; i++ {
		if _, err := st.startNode(registry, clusterOptions{workerPort: pinnedPort(cfg, 27300+10*i), workers: 2, resultCache: true, fragmentCache: true}); err != nil {
			st.close()
			return nil, err
		}
	}
	if err := st.startGateway(gateway.Sticky); err != nil {
		st.close()
		return nil, err
	}

	tiles, bounds := dashTilesDef(), dashBounds(cfg.Seed)
	oracle := &dashOracle{tiles: tiles, bounds: bounds}
	sc := &scenario{stack: st, stream: dashStream(cfg.Seed), catalog: "hive", schema: "tpch"}
	sc.prepare = func() error {
		if !cfg.Tiny {
			g, err := loadGolden()
			if err != nil {
				return err
			}
			if diff := g.Lineitem.matches(lineitemPin()); diff != "" {
				return fmt.Errorf("generated lineitem rows differ from golden.json (%s): the data generator changed", diff)
			}
		}
		oracle.addVersion(initial, time.Time{})
		oracle.publish(time.Time{})
		initial = nil // folded; the closure would otherwise keep 24k rows alive for the run
		return nil
	}
	var appendMu sync.Mutex
	sc.before = func(i int64) error {
		if i == 0 || i%shape.appendEvery != 0 {
			return nil
		}
		appendMu.Lock()
		defer appendMu.Unlock()
		k := int(i/shape.appendEvery) - 1
		rows := shape.appendedRows(k)
		// The expected answers exist before the partition does, so a response
		// that already sees it can be checked.
		oracle.addVersion(rows, time.Now())
		if err := loader.AddPartition("tpch", "lineitem", "batch", fmt.Sprintf("append-%05d", k),
			[]*block.Page{lineitemPage(rows)}, true); err != nil {
			return err
		}
		oracle.publish(time.Now())
		return nil
	}
	sc.verify = func(_ int, stmt Statement, res *cluster.QueryResult, issued, done time.Time) error {
		got, err := expectResult(res)
		if err != nil {
			return err
		}
		return oracle.check(stmt.Template, got, issued, done)
	}
	sc.traced = func(pass int) []Statement {
		out := make([]Statement, dashTiles)
		for t := range out {
			session := (pass*11 + t*5) % dashSessions
			out[t] = dashStatement(tiles, bounds, session*dashTiles+t)
		}
		return out
	}
	return sc, nil
}

// dashOracle is the plain-Go reference for the 192 dashboard statements: it
// folds every generated row into per-statement group accumulators and keeps
// the expected answer of every statement at every table version.
type dashOracle struct {
	tiles  []dashTile
	bounds []int64

	mu  sync.RWMutex
	acc []map[string]*dashGroup // per statement: group key -> running aggregates
	// versions[v][k] is statement k's answer once v appends are visible;
	// started[v] and published[v] bracket the AddPartition call that made
	// version v visible.
	versions  [][]expectation
	started   []time.Time
	published []time.Time
}

type dashGroup struct {
	keys  []any
	count int64
	sum   []float64
	max   []float64
}

// addVersion folds rows in and records the resulting answers as the next
// version, whose partition add starts at started.
func (o *dashOracle) addVersion(rows [][]any, started time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := dashSessions * dashTiles
	if o.acc == nil {
		o.acc = make([]map[string]*dashGroup, n)
		for k := range o.acc {
			o.acc[k] = map[string]*dashGroup{}
		}
	}
	answers := make([]expectation, n)
	for k := 0; k < n; k++ {
		tile, bound := o.tiles[k%dashTiles], o.bounds[k/dashTiles]
		groups := o.acc[k]
		for _, row := range rows {
			if row[liPartKey].(int64) > bound || (tile.where != nil && !tile.where(row)) {
				continue
			}
			var sb strings.Builder
			for _, c := range tile.keys {
				sb.WriteString(row[c].(string))
				sb.WriteByte(0)
			}
			g := groups[sb.String()]
			if g == nil {
				g = &dashGroup{sum: make([]float64, len(tile.aggs)), max: make([]float64, len(tile.aggs))}
				for _, c := range tile.keys {
					g.keys = append(g.keys, row[c])
				}
				groups[sb.String()] = g
			}
			g.count++
			for a, agg := range tile.aggs {
				if agg.col < 0 {
					continue
				}
				v := row[agg.col].(float64)
				g.sum[a] += v
				if g.count == 1 || v > g.max[a] {
					g.max[a] = v
				}
			}
		}
		answers[k] = tileAnswer(tile, groups)
	}
	o.versions = append(o.versions, answers)
	o.started = append(o.started, started)
}

// publish marks the newest version's partition add as returned.
func (o *dashOracle) publish(at time.Time) {
	o.mu.Lock()
	o.published = append(o.published, at)
	o.mu.Unlock()
}

func tileAnswer(tile dashTile, groups map[string]*dashGroup) expectation {
	if len(tile.keys) == 0 && len(groups) == 0 {
		groups = map[string]*dashGroup{"": {sum: make([]float64, len(tile.aggs)), max: make([]float64, len(tile.aggs))}}
	}
	e := expectation{Rows: len(groups)}
	for _, g := range groups {
		row := make([]string, 0, len(g.keys)+len(tile.aggs))
		for _, k := range g.keys {
			row = append(row, cell(k))
		}
		for a, agg := range tile.aggs {
			switch agg.fn {
			case "count":
				row = append(row, cell(g.count))
			case "sum":
				row = append(row, cell(g.sum[a]))
			case "avg":
				row = append(row, cell(g.sum[a]/float64(g.count)))
			case "max":
				row = append(row, cell(g.max[a]))
			}
		}
		e.Values = append(e.Values, row)
	}
	sort.Slice(e.Values, func(i, j int) bool { return sortKey(e.Values[i]) < sortKey(e.Values[j]) })
	return e
}

// check accepts the answer of any version the response may legitimately
// reflect: one whose partition add had started by the time the response
// arrived and whose successor was not yet in place when the request left.
func (o *dashOracle) check(k int, got expectation, issued, done time.Time) error {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var diff string
	for v := len(o.versions) - 1; v >= 0; v-- {
		if o.started[v].After(done) {
			continue
		}
		if v+1 < len(o.published) && o.published[v+1].Before(issued) {
			break
		}
		if diff = o.versions[v][k].matches(got); diff == "" {
			return nil
		}
	}
	return fmt.Errorf("wrong answer at every admissible table version: %s", diff)
}
