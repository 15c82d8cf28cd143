package hdfs

import (
	"testing"
	"time"
)

func newFS(t *testing.T) *NameNode {
	t.Helper()
	nn := New(Config{})
	for path, content := range map[string]string{
		"/warehouse/t/datestr=2017-03-01/part-0": "aaa",
		"/warehouse/t/datestr=2017-03-01/part-1": "bb",
		"/warehouse/t/datestr=2017-03-02/part-0": "c",
	} {
		w, err := nn.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w.Write([]byte(content))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return nn
}

func TestListFiles(t *testing.T) {
	nn := newFS(t)
	files, err := nn.ListFiles("/warehouse/t/datestr=2017-03-01")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Size != 3 || files[1].Size != 2 {
		t.Fatalf("files = %v", files)
	}
	// Listing a parent dir returns only direct children (none are files).
	files, err = nn.ListFiles("/warehouse/t")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("parent list = %v", files)
	}
	if _, err := nn.ListFiles("/missing"); err == nil {
		t.Error("missing dir accepted")
	}
	if n := nn.Counters.ListFilesCalls.Load(); n != 3 {
		t.Errorf("listFiles counter = %d", n)
	}
}

func TestListDirs(t *testing.T) {
	nn := newFS(t)
	dirs, err := nn.ListDirs("/warehouse/t")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 || dirs[0] != "datestr=2017-03-01" {
		t.Fatalf("dirs = %v", dirs)
	}
}

func TestOpenReadStat(t *testing.T) {
	nn := newFS(t)
	info, err := nn.GetFileInfo("/warehouse/t/datestr=2017-03-01/part-0")
	if err != nil || info.Size != 3 {
		t.Fatalf("info = %v, %v", info, err)
	}
	f, err := nn.Open("/warehouse/t/datestr=2017-03-01/part-0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 2)
	if _, err := f.ReadAt(buf, 1); err != nil || string(buf) != "aa" {
		t.Fatalf("read = %q, %v", buf, err)
	}
	if _, err := f.ReadAt(buf, 10); err == nil {
		t.Error("read past end accepted")
	}
	if _, err := nn.Open("/missing"); err == nil {
		t.Error("missing open accepted")
	}
	if _, err := nn.GetFileInfo("/missing"); err == nil {
		t.Error("missing stat accepted")
	}
	if nn.Counters.BytesRead.Load() != 2 {
		t.Errorf("bytes read = %d", nn.Counters.BytesRead.Load())
	}
	if nn.Counters.ReadCalls.Load() != 2 { // the failed read was a round trip too
		t.Errorf("read calls = %d", nn.Counters.ReadCalls.Load())
	}
}

func TestDelete(t *testing.T) {
	nn := newFS(t)
	nn.Delete("/warehouse/t/datestr=2017-03-02/part-0")
	if _, err := nn.GetFileInfo("/warehouse/t/datestr=2017-03-02/part-0"); err == nil {
		t.Error("deleted file still visible")
	}
}

func TestDegradedNameNode(t *testing.T) {
	nn := New(Config{ListFilesLatency: 500 * time.Microsecond})
	w, _ := nn.Create("/d/f")
	w.Close()
	start := time.Now()
	nn.ListFiles("/d")
	healthy := time.Since(start)

	nn.Degrade(20) // the §XII.D incident
	start = time.Now()
	nn.ListFiles("/d")
	degraded := time.Since(start)
	// Sleep granularity makes exact ratios flaky; require a clear gap.
	if degraded < healthy+5*time.Millisecond {
		t.Errorf("degraded NameNode not slower: %v vs %v", degraded, healthy)
	}
	nn.Degrade(1)
	start = time.Now()
	nn.ListFiles("/d")
	if recovered := time.Since(start); recovered > degraded/2 {
		t.Errorf("recovery did not restore latency: %v", recovered)
	}
}

func TestObserverNameNodeOffloadsReads(t *testing.T) {
	nn := newFS(t)
	obs := NewObserver(nn, Config{})
	activeBefore := nn.Counters.ListFilesCalls.Load()

	// Reads through the observer never touch the active NameNode counters.
	files, err := obs.ListFiles("/warehouse/t/datestr=2017-03-01")
	if err != nil || len(files) != 2 {
		t.Fatalf("observer list = %v, %v", files, err)
	}
	if _, err := obs.GetFileInfo("/warehouse/t/datestr=2017-03-01/part-0"); err != nil {
		t.Fatal(err)
	}
	f, err := obs.Open("/warehouse/t/datestr=2017-03-01/part-0")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if nn.Counters.ListFilesCalls.Load() != activeBefore {
		t.Error("observer read hit the active NameNode")
	}
	if obs.Counters.ListFilesCalls.Load() != 1 || obs.Counters.GetFileInfoCalls.Load() != 1 {
		t.Errorf("observer counters = %+v", obs.Counters.ListFilesCalls.Load())
	}

	// Writes go to the active node and are immediately visible to readers.
	w, err := obs.Create("/warehouse/t/datestr=2017-03-01/part-9")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("zz"))
	w.Close()
	files, _ = obs.ListFiles("/warehouse/t/datestr=2017-03-01")
	if len(files) != 3 {
		t.Errorf("new file not visible through observer: %v", files)
	}
	if _, err := obs.GetFileInfo("/missing"); err == nil {
		t.Error("missing stat accepted")
	}
	if _, err := obs.Open("/missing"); err == nil {
		t.Error("missing open accepted")
	}
	if _, err := obs.ListFiles("/missing"); err == nil {
		t.Error("missing list accepted")
	}
}
