package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/sql"
)

// TestStatementEncodingIsCanonical: a statement's properties go in key
// order, so two equal requests encode to the same bytes however their
// properties were filled in, and the document reads back equal.
func TestStatementEncodingIsCanonical(t *testing.T) {
	keys := []string{"task_concurrency", "result_cache", "query_max_memory", "a", "zz"}
	forward := StatementRequest{Query: "SELECT 1", Catalog: "hive", Schema: "rawdata", User: "bob", Properties: map[string]string{}}
	backward := forward
	backward.Properties = map[string]string{}
	for i := range keys {
		forward.Properties[keys[i]] = keys[i] + "-value"
		backward.Properties[keys[len(keys)-1-i]] = keys[len(keys)-1-i] + "-value"
	}
	a, b := forward.encode(), backward.encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("equal statements encode apart:\n%x\n%x", a, b)
	}
	back, err := decodeStatement(a)
	if err != nil || !reflect.DeepEqual(back, forward) {
		t.Fatalf("read back %+v, %v; want %+v", back, err, forward)
	}
}

// goldenStatements are the SQL texts of the benchmark's answer key.
func goldenStatements(f *testing.F) []string {
	data, err := os.ReadFile("../e2ebench/golden.json")
	if err != nil {
		f.Fatal(err)
	}
	var golden struct {
		Statements map[string]json.RawMessage `json:"statements"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		f.Fatal(err)
	}
	var out []string
	for sql := range golden.Statements {
		out = append(out, sql)
	}
	return out
}

// FuzzDecodeStatement: any bytes are a statement document or an error — no
// panic — and a document that reads encodes back to the same bytes. Seeded
// with the benchmark's statements.
func FuzzDecodeStatement(f *testing.F) {
	for i, sql := range goldenStatements(f) {
		req := StatementRequest{Query: sql, Catalog: "hive", Schema: "rawdata", User: "bench"}
		if i%2 == 0 {
			req.Properties = map[string]string{"result_cache": "false", "task_concurrency": "2"}
		}
		data := req.encode()
		if _, err := decodeStatement(data); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeStatement(data)
		if err != nil {
			return
		}
		if again := req.encode(); !bytes.Equal(again, data) {
			t.Fatalf("a statement that read does not encode back to itself:\n%x\n%x", data, again)
		}
	})
}

// FuzzDecodeTask: any bytes are a task request or an error — no panic, and
// nothing allocated that the input's size does not cover, nor more than
// maxTaskAcks acknowledgements — and a request that reads encodes back to
// the same bytes, its fragment-cache key to the key part decodeTask cut from
// them. Seeded with the source fragments of statements shaped like the
// planner tests', over a hive warehouse and a memory catalog, each with its
// real splits and with none, one or several acknowledgements.
func FuzzDecodeTask(f *testing.F) {
	reg := newCatalogs(f)
	for _, q := range []string{
		"SELECT city_id, fare FROM hive.rawdata.trips WHERE fare >= 10.0",
		"SELECT city_id, count(*), sum(fare), avg(fare) FROM hive.rawdata.trips GROUP BY city_id",
		"SELECT t.fare, c.name FROM hive.rawdata.trips t JOIN memory.meta.cities c ON t.city_id = c.city_id WHERE c.name IN ('sf', 'la')",
		"SELECT fare * 2 + 1, city_id IS NULL FROM hive.rawdata.trips WHERE city_id BETWEEN 1 AND 3 ORDER BY 1 DESC LIMIT 4",
		"SELECT name FROM memory.meta.cities WHERE city_id <> 2 LIMIT 2",
		// A global aggregate the hive scan answers from its footers.
		"SELECT count(*), max(city_id), count(city_id) FROM hive.rawdata.trips WHERE city_id < 100",
	} {
		for _, frag := range sourceFragments(f, reg, q) {
			if strings.Contains(q, "count(city_id)") && !strings.Contains(planner.Format(frag.root), "aggregates=") {
				f.Fatalf("%s: the source fragment absorbs no aggregate:\n%s", q, planner.Format(frag.root))
			}
			acks := [][]string{nil, {"q0.f1.t0"}, {"q0.f1.t1", "q0.f2.t1.r1", ""}}
			for i, splits := range [][]int{nil, {0}, {0, 1, 2}} {
				req := TaskRequest{TaskID: "q1.f1.t0", Fragment: frag.root, TableKey: frag.tableKey, Drivers: i, MaxMemory: 1 << 20, Deadline: 1e18, SnapshotVersion: int64(i), Acks: acks[i]}
				for _, s := range splits {
					if s < len(frag.splits) {
						req.Splits = append(req.Splits, frag.splits[s])
					}
				}
				data := req.encode()
				if _, _, err := decodeTask(data, reg); err != nil {
					f.Fatalf("%s: %v", q, err)
				}
				f.Add(data)
			}
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, key, err := decodeTask(data, reg)
		if err != nil {
			return
		}
		if len(req.Splits) > len(data) {
			t.Fatalf("%d bytes read as %d splits", len(data), len(req.Splits))
		}
		if len(req.Acks) > min(len(data), maxTaskAcks) {
			t.Fatalf("%d bytes read as %d acknowledgements", len(data), len(req.Acks))
		}
		if again := req.encode(); !bytes.Equal(again, data) {
			t.Fatalf("a task that read does not encode back to itself:\n%x\n%x", data, again)
		}
		if again := req.cacheKey(); !bytes.Equal(again, key) {
			t.Fatalf("the key cut from a task differs from the key encoded from it:\n%x\n%x", key, again)
		}
	})
}

// TestAcksAreNotInTheCacheKey: a task document's acknowledgements follow
// the task's own fields, so its fragment-cache key — encoded, or cut from
// the document by decodeTask — is byte-identical with and without them; and
// a document acknowledging more than maxTaskAcks tasks is refused.
func TestAcksAreNotInTheCacheKey(t *testing.T) {
	reg := newCatalogs(t)
	frag := sourceFragments(t, reg, "SELECT city_id, count(*) FROM hive.rawdata.trips GROUP BY city_id")[0]
	bare := TaskRequest{TaskID: "q2.f1.t0", Fragment: frag.root, TableKey: frag.tableKey, Splits: frag.splits, SnapshotVersion: 3}
	acked := bare
	acked.Acks = []string{"q1.f1.t0", "q1.f2.t0"}
	if !bytes.Equal(bare.cacheKey(), acked.cacheKey()) {
		t.Fatal("the acknowledgements changed the encoded cache key")
	}
	_, bareKey, err := decodeTask(bare.encode(), reg)
	if err != nil {
		t.Fatal(err)
	}
	got, ackedKey, err := decodeTask(acked.encode(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bareKey, ackedKey) || !bytes.Equal(bareKey, bare.cacheKey()) {
		t.Fatalf("the key cut from a document with acknowledgements differs:\n%x\n%x", bareKey, ackedKey)
	}
	if !reflect.DeepEqual(got.Acks, acked.Acks) {
		t.Errorf("acknowledgements read as %q, want %q", got.Acks, acked.Acks)
	}
	acked.Acks = make([]string, maxTaskAcks+1)
	if _, _, err := decodeTask(acked.encode(), reg); err == nil {
		t.Errorf("a document with %d acknowledgements was read", len(acked.Acks))
	}
}

type testFragment struct {
	root     planner.Node
	tableKey string
	splits   []connector.Split
}

// sourceFragments plans query and returns each of its source fragments with
// the splits of its scan.
func sourceFragments(tb testing.TB, reg *connector.Registry, query string) []testFragment {
	tb.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := planner.PlanQuery(reg, &planner.Session{Catalog: "hive", Schema: "rawdata"}, stmt.(*sql.Query))
	if err != nil {
		tb.Fatal(err)
	}
	var out []testFragment
	for _, frag := range (&planner.Fragmenter{}).Fragment(plan).Sources {
		conn, err := reg.Get(frag.Scan.Catalog)
		if err != nil {
			tb.Fatal(err)
		}
		splits, err := conn.SplitManager().Splits(frag.Scan.Handle)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, testFragment{frag.Root, frag.TableKey, splits})
	}
	return out
}

// TestLiveStatsAreBounded: the coordinator reads a task's live
// /v1/task/{id}/stats answer in the stats codec and under a byte bound — a
// well-formed answer past the bound is dropped, not read.
func TestLiveStatsAreBounded(t *testing.T) {
	small := []obs.OperatorStatsSnapshot{{ID: 1, Name: "TableScan", RowsOut: 42, WallNanos: 7, Tasks: 1, Drivers: 2}}
	huge := []obs.OperatorStatsSnapshot{{ID: 1, Name: strings.Repeat("x", maxStatsBytes)}}
	var serve atomic.Pointer[[]obs.OperatorStatsSnapshot]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(obs.AppendSnapshots(nil, *serve.Load())) // the test reads what arrived
	}))
	t.Cleanup(srv.Close)
	th := &taskHandle{worker: &workerClient{addr: strings.TrimPrefix(srv.URL, "http://"), http: srv.Client()}, taskID: "t0"}
	serve.Store(&small)
	if got := th.liveStats(); !reflect.DeepEqual(got, small) {
		t.Errorf("live stats read as %+v, want %+v", got, small)
	}
	serve.Store(&huge)
	if got := th.liveStats(); got != nil {
		t.Errorf("a %d-byte stats answer was read", len(obs.AppendSnapshots(nil, huge)))
	}
}

// TestAnnouncedSizeIsNotAnAllocation: a peer's Content-Length says where a
// body ends, not how much memory to set aside for it before it arrives. A
// server announces a terabyte and sends 10 bytes; a task's results fetch and
// a statement's post each fail, and the two allocate under 1 MiB in all. It
// runs in a child process: a reader that trusted the header would abort the
// process instead of failing a test.
func TestAnnouncedSizeIsNotAnAllocation(t *testing.T) {
	const child = "CLUSTER_ANNOUNCED_SIZE_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestAnnouncedSizeIsNotAnAllocation$", "-test.count=1")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("the child process: %v\n%s", err, out[:min(len(out), 2048)])
		}
		return
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(1<<40))
		_, _ = w.Write([]byte("0123456789")) // then the server closes the connection
	}))
	t.Cleanup(srv.Close)
	th := &taskHandle{worker: &workerClient{addr: strings.TrimPrefix(srv.URL, "http://"), http: srv.Client()}, taskID: "t0"}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, fetchErr := th.fetchResults(0)
	_, postErr := PostStatement(srv.Client(), srv.URL+"/v1/statement", StatementRequest{Query: "SELECT 1"}, "u", "", "")
	runtime.ReadMemStats(&after)
	if fetchErr == nil || postErr == nil {
		t.Errorf("10 bytes of an announced terabyte: results fetch %v, statement post %v; want errors", fetchErr, postErr)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("reading 10 bytes of an announced terabyte twice allocated %d bytes, want under 1 MiB", alloc)
	}
}
