package hdfs

import (
	"testing"
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
