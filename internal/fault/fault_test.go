package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"prestolite/internal/fsys"
)

// TestSeedDeterminism: the same seed produces the same drop pattern over a
// serial request sequence — the property that makes chaos runs replayable.
func TestSeedDeterminism(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := NewInjector(seed)
		in.FaultHTTP(HTTPRule{DropProb: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.decideHTTP("w1:8080", "/v1/task").drop
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at draw %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 200-draw patterns")
	}
	drops := 0
	for _, d := range a {
		if d {
			drops++
		}
	}
	if drops < 30 || drops > 90 {
		t.Fatalf("0.3 drop probability yielded %d/200 drops", drops)
	}
}

// TestTransportDrop: a dropped request never reaches the server and surfaces
// as an InjectedError through errors.As.
func TestTransportDrop(t *testing.T) {
	served := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	in := NewInjector(1)
	in.FaultHTTP(HTTPRule{DropProb: 1})
	client := &http.Client{Transport: &Transport{Injector: in}}
	_, err := client.Get(srv.URL)
	if err == nil {
		t.Fatal("expected drop error")
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Op != "drop" {
		t.Fatalf("err = %v, want InjectedError{Op: drop}", err)
	}
	if served != 0 {
		t.Fatalf("dropped request reached the server %d times", served)
	}
	if n := in.Counters.Dropped.Load(); n != 1 {
		t.Fatalf("Dropped = %d", n)
	}
}

// TestTransportRulesScope: rules match by host and path substring; requests
// outside the scope pass untouched.
func TestTransportRulesScope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	in := NewInjector(1)
	in.FaultHTTP(HTTPRule{Target: "no-such-host", DropProb: 1})
	in.FaultHTTP(HTTPRule{Path: "/v1/task", DropProb: 1})
	client := &http.Client{Transport: &Transport{Injector: in}}

	resp, err := client.Get(srv.URL + "/v1/info")
	if err != nil {
		t.Fatalf("out-of-scope request failed: %v", err)
	}
	_ = resp.Body.Close()
	if _, err := client.Get(srv.URL + "/v1/task/t0/results"); err == nil {
		t.Fatal("in-scope path was not dropped")
	}
}

// TestTransportBlackHole: a black-holed request hangs until the client
// timeout, then fails — never silently succeeds.
func TestTransportBlackHole(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	in := NewInjector(1)
	in.FaultHTTP(HTTPRule{BlackHoleProb: 1})
	client := &http.Client{Transport: &Transport{Injector: in}, Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := client.Get(srv.URL)
	if err == nil {
		t.Fatal("black-holed request succeeded")
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("black hole returned after %v, before the 50ms client timeout", elapsed)
	}
	if n := in.Counters.BlackHoled.Load(); n != 1 {
		t.Fatalf("BlackHoled = %d", n)
	}
}

// TestTransportDelay: injected latency is charged on the injector's clock —
// with a ManualClock the request is slow in virtual time only.
func TestTransportDelay(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	clk := NewManualClock(time.Unix(0, 0))
	in := NewInjector(1)
	in.Clock = clk
	in.FaultHTTP(HTTPRule{DelayProb: 1, Delay: 3 * time.Second})
	client := &http.Client{Transport: &Transport{Injector: in}}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("delayed request failed: %v", err)
	}
	_ = resp.Body.Close()
	if got := clk.Slept(); got != 3*time.Second {
		t.Fatalf("virtual delay = %v, want 3s", got)
	}
	if n := in.Counters.Delayed.Load(); n != 1 {
		t.Fatalf("Delayed = %d", n)
	}
}

// TestTransportCorrupt: exactly one body byte differs after a corruption,
// and the flip position is seed-deterministic.
func TestTransportCorrupt(t *testing.T) {
	payload := []byte("hello, presto workers")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(payload)
	}))
	defer srv.Close()

	readBody := func(seed int64) []byte {
		in := NewInjector(seed)
		in.FaultHTTP(HTTPRule{CorruptProb: 1})
		client := &http.Client{Transport: &Transport{Injector: in}}
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("corrupted request failed: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	a := readBody(7)
	diff := 0
	for i := range a {
		if a[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
	if b := readBody(7); string(a) != string(b) {
		t.Fatal("same seed corrupted different byte positions")
	}
}

// TestFaultFS: filesystem rules inject typed errors into the selected ops and
// paths only, and faulted reads count in the injector's counters.
func TestFaultFS(t *testing.T) {
	base := fsys.NewLocal(t.TempDir())
	for _, p := range []string{"/data/a.parquet", "/data/b.parquet"} {
		w, err := base.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	in := NewInjector(5)
	in.FaultFS(FSRule{Path: "a.parquet", Ops: []string{"read"}, ErrProb: 1})
	ffs := &FS{Injector: in, Base: base}

	// Untargeted file reads fine.
	fb, err := ffs.Open("/data/b.parquet")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := fb.ReadAt(buf, 0); err != nil {
		t.Fatalf("untargeted read failed: %v", err)
	}
	// Open of the targeted file is fine (rule scopes "read" only)...
	fa, err := ffs.Open("/data/a.parquet")
	if err != nil {
		t.Fatalf("open should not fault: %v", err)
	}
	// ...but every read faults with a typed error.
	_, err = fa.ReadAt(buf, 0)
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Op != "fs-read" {
		t.Fatalf("err = %v, want InjectedError{Op: fs-read}", err)
	}
	if n := in.Counters.FSErrors.Load(); n != 1 {
		t.Fatalf("FSErrors = %d", n)
	}

	// A corruption rule with a byte range inverts the reads that overlap the
	// range — wherever they start: a reader may fetch the targeted chunk as
	// the tail of a longer read — and leaves the rest of the file alone.
	in.Reset()
	in.FaultFS(FSRule{Path: "b.parquet", Ops: []string{"read"}, CorruptProb: 1, Offset: 4, Length: 3})
	if _, err := fb.ReadAt(buf, 0); err != nil || string(buf) != "0123" {
		t.Fatalf("read before the range = %q, %v", buf, err)
	}
	if _, err := fb.ReadAt(buf, 5); err != nil || buf[0] != ^byte('5') || buf[3] != ^byte('8') {
		t.Fatalf("read inside the range = %q, %v", buf, err)
	}
	if _, err := fb.ReadAt(buf, 2); err != nil || buf[0] != ^byte('2') || buf[3] != ^byte('5') {
		t.Fatalf("read running into the range = %q, %v", buf, err)
	}
	if _, err := fb.ReadAt(buf[:2], 7); err != nil || string(buf[:2]) != "78" {
		t.Fatalf("read after the range = %q, %v", buf[:2], err)
	}
	if n := in.Counters.FSCorruptReads.Load(); n != 2 {
		t.Fatalf("FSCorruptReads = %d", n)
	}
}

// TestManualClock: virtual time passes instantly, Sleep/After accumulate in
// Slept, and After always delivers.
func TestManualClock(t *testing.T) {
	clk := NewManualClock(time.Unix(100, 0))
	start := time.Now()
	clk.Sleep(time.Hour)
	select {
	case now := <-clk.After(30 * time.Minute):
		if want := time.Unix(100, 0).Add(90 * time.Minute); !now.Equal(want) {
			t.Fatalf("After delivered %v, want %v", now, want)
		}
	default:
		t.Fatal("After channel did not fire immediately")
	}
	if real := time.Since(start); real > time.Second {
		t.Fatalf("virtual 90m took %v real time", real)
	}
	if clk.Slept() != 90*time.Minute {
		t.Fatalf("Slept = %v", clk.Slept())
	}
	clk.Advance(10 * time.Minute)
	if clk.Slept() != 90*time.Minute {
		t.Fatal("Advance must not count as sleep")
	}
	if want := time.Unix(100, 0).Add(100 * time.Minute); !clk.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", clk.Now(), want)
	}
}

// TestTransportResponseLoss: a lost response reaches the server, which
// handles the request to its end, and the client gets an InjectedError; a
// drop never reaches the server.
func TestTransportResponseLoss(t *testing.T) {
	handled := make(chan string, 4)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("answer"))
		handled <- r.URL.Path
	}))
	defer srv.Close()

	in := NewInjector(1)
	in.FaultHTTP(HTTPRule{Path: "/v1/task", LoseProb: 1})
	in.FaultHTTP(HTTPRule{Path: "/v1/drop", DropProb: 1})
	client := &http.Client{Transport: &Transport{Injector: in}}

	_, err := client.Post(srv.URL+"/v1/task", "application/octet-stream", nil)
	var injected *InjectedError
	if !errors.As(err, &injected) || injected.Op != "lose" {
		t.Fatalf("lost response: err = %v, want an injected lose", err)
	}
	select {
	case path := <-handled:
		if path != "/v1/task" {
			t.Fatalf("the server handled %s", path)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a request whose response was lost never reached the server")
	}
	if n := in.Counters.Lost.Load(); n != 1 {
		t.Fatalf("Lost = %d, want 1", n)
	}

	if _, err := client.Get(srv.URL + "/v1/drop"); err == nil {
		t.Fatal("dropped request succeeded")
	}
	resp, err := client.Get(srv.URL + "/v1/info")
	if err != nil {
		t.Fatalf("out-of-scope request failed: %v", err)
	}
	_ = resp.Body.Close()
	if path := <-handled; path != "/v1/info" {
		t.Fatalf("the server handled %s: the dropped request reached it", path)
	}
}

// TestManualClockTimers: a timer fires when the clock is moved to its time,
// by Advance or Sleep, and not before; a stopped one never fires.
func TestManualClockTimers(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	fired := make(chan string, 3)
	clk.AfterFunc(time.Minute, func() { fired <- "a" })
	stopB := clk.AfterFunc(time.Minute, func() { fired <- "b" })
	clk.AfterFunc(2*time.Minute, func() { fired <- "c" })
	if !stopB() {
		t.Fatal("stopping a pending timer reported it had fired")
	}
	clk.Advance(time.Minute - time.Nanosecond)
	select {
	case f := <-fired:
		t.Fatalf("timer %s fired before its time", f)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	if f := <-fired; f != "a" {
		t.Fatalf("timer %s fired at one minute, want a", f)
	}
	clk.Sleep(time.Minute)
	if f := <-fired; f != "c" {
		t.Fatalf("timer %s fired at two minutes, want c", f)
	}
	if stopB() {
		t.Fatal("a stopped timer stopped twice")
	}
	select {
	case f := <-fired:
		t.Fatalf("timer %s fired after it was stopped", f)
	case <-time.After(20 * time.Millisecond):
	}
}
