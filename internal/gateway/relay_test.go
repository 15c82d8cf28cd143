package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/frame"
)

// fakeCoordinator answers /v1/stats as an idle coordinator does and every
// statement with answer, counting statements and keeping the last document
// it was sent.
type fakeCoordinator struct {
	srv        *httptest.Server
	statements atomic.Int64
	mu         sync.Mutex
	doc        []byte
}

func startFake(t *testing.T, answer http.HandlerFunc) *fakeCoordinator {
	t.Helper()
	f := &fakeCoordinator{}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			_, _ = io.WriteString(w, `{"Gauges":{}}`)
			return
		}
		doc, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.doc = doc
		f.mu.Unlock()
		f.statements.Add(1)
		answer(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeCoordinator) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

// gatewayTo starts a gateway whose default route is the first cluster and
// that knows the rest.
func gatewayTo(t *testing.T, addrs ...string) *Gateway {
	t.Helper()
	gw, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for i, addr := range addrs {
		if err := gw.AddCluster("c"+strconv.Itoa(i), addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.SetRoute("default", "c0"); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw
}

// statementAnswer is a coordinator's answer of one bigint column in pages
// of rows each.
func statementAnswer(t *testing.T, pages, rows int) (body []byte, frames [][]byte) {
	t.Helper()
	for p := 0; p < pages; p++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(p*rows + i)
		}
		f, err := block.EncodePage(block.NewPage(&block.Int64Block{Values: vals}))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	header := frame.AppendStrings(frame.AppendStrings(nil, []string{"n"}), []string{"bigint"})
	var buf bytes.Buffer
	if _, err := block.NewEnvelope(header, frames).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), frames
}

func serve(body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	}
}

// allocated is what the process allocates while fn runs.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var relayStatement = cluster.StatementRequest{Query: "SELECT n FROM t", Catalog: "memory", Schema: "meta", User: "alice"}

// TestExecuteRelaysTheAnswer: /v1/execute copies a coordinator's answer
// through as it arrives. A multi-MiB answer reaches the client byte for byte,
// with the coordinator's Content-Length, and what the gateway allocates for a
// statement does not grow with the answer: it used to read the whole answer
// into a buffer grown by doubling before writing a byte of it.
func TestExecuteRelaysTheAnswer(t *testing.T) {
	big, frames := statementAnswer(t, 4, 250_000) // 8 MB
	small, _ := statementAnswer(t, 1, 10)
	var answer atomic.Pointer[[]byte]
	answer.Store(&big)
	coord := startFake(t, func(w http.ResponseWriter, r *http.Request) { serve(*answer.Load())(w, r) })
	gw := gatewayTo(t, coord.addr())

	var announced int64
	var raw bytes.Buffer
	cl := NewClient(gw.Addr())
	cl.HTTP = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err == nil {
			announced = resp.ContentLength
			resp.Body = io.NopCloser(io.TeeReader(resp.Body, &raw))
		}
		return resp, err
	})}
	res, err := cl.Execute(relayStatement, "alice", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Bytes(), big) || announced != int64(len(big)) {
		t.Fatalf("the client read %d bytes announced as %d; the coordinator answered %d", raw.Len(), announced, len(big))
	}
	if len(res.Pages) != len(frames) {
		t.Fatalf("%d pages, want %d", len(res.Pages), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(res.Pages[i], frames[i]) {
			t.Fatalf("page %d differs from the coordinator's", i)
		}
	}

	// The client below discards the answer, so what is allocated is the
	// gateway's (and the fake coordinator's, which writes a built answer).
	coord.mu.Lock()
	doc := coord.doc
	coord.mu.Unlock()
	execute := func() {
		resp, err := http.Post("http://"+gw.Addr()+"/v1/execute", "application/octet-stream", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n != int64(len(*answer.Load())) {
			t.Fatalf("execute: %s, %d bytes, %v", resp.Status, n, err)
		}
	}
	execute() // warm the connections
	perStatement := func(body []byte) uint64 {
		answer.Store(&body)
		return allocated(func() {
			for i := 0; i < 4; i++ {
				execute()
			}
		}) / 4
	}
	smallAlloc, bigAlloc := perStatement(small), perStatement(big)
	if bigAlloc > smallAlloc+256<<10 {
		t.Errorf("a statement allocates %d bytes with a %d-byte answer and %d with a %d-byte one: the gateway holds the answer", smallAlloc, len(small), bigAlloc, len(big))
	}
}

// TestExecuteRelaysAPrefixOfAnErrorBody: a coordinator's answer that is not a
// result is relayed with its status, but only its first maxErrorBytes: the
// gateway does not read an error body of any size.
func TestExecuteRelaysAPrefixOfAnErrorBody(t *testing.T) {
	huge := bytes.Repeat([]byte("e"), 16<<20)
	coord := startFake(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write(huge) // cut off when the gateway has read enough
	})
	gw := gatewayTo(t, coord.addr())
	cl := NewClient(gw.Addr())
	var err error
	alloc := allocated(func() { _, err = cl.Execute(relayStatement, "alice", "") })
	if err == nil || !strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), "eeee") {
		t.Fatalf("a 400 with a 16 MiB body: %v; want the status and the body's start", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("relaying a 16 MiB error body allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestExecuteRelayAbortsWhenTheCoordinatorDies: a coordinator that dies in
// the middle of its answer has already been relayed in part, so the gateway
// cannot resubmit: it aborts the client's connection — an error at the
// client, never a shorter answer — and counts a failure against the
// cluster's breaker. No other cluster is asked.
func TestExecuteRelayAbortsWhenTheCoordinatorDies(t *testing.T) {
	body, _ := statementAnswer(t, 2, 20_000)
	dying := startFake(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // the connection is closed mid-body
	})
	other := startFake(t, serve(body))
	gw := gatewayTo(t, dying.addr(), other.addr())
	if _, err := NewClient(gw.Addr()).Execute(relayStatement, "alice", ""); err == nil {
		t.Fatal("an answer cut off by the coordinator's death reached the client as an answer")
	}
	br := gw.breakerFor(dying.addr())
	br.mu.Lock()
	failures := br.failures
	br.mu.Unlock()
	if failures != 1 {
		t.Errorf("the dying cluster's breaker counts %d failures, want 1", failures)
	}
	if got := gw.Obs().Snapshot().Counters["gateway_resubmissions"]; got != 0 || other.statements.Load() != 0 {
		t.Errorf("resubmissions %d, statements on the other cluster %d; want none after the answer started", got, other.statements.Load())
	}
}

// roundTripperFunc adapts a function to http.RoundTripper.
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
