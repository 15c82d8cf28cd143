package fsys

import (
	"io"
	"os"
	"testing"
	"time"
)

func TestLocalRoundTrip(t *testing.T) {
	root := t.TempDir()
	fs := NewLocal(root)
	w, err := fs.Create("/warehouse/t/part-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := fs.ListFiles("/warehouse/t")
	if err != nil || len(files) != 1 || files[0].Size != 5 || files[0].Stamp == 0 {
		t.Fatalf("files = %v, %v", files, err)
	}
	f, err := fs.Open("/warehouse/t/part-0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != 5 {
		t.Errorf("size = %d", f.Size())
	}
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 2); err != nil || string(buf) != "llo" {
		t.Fatalf("read = %q, %v", buf, err)
	}
	if _, err := fs.Open("/missing"); err == nil {
		t.Error("missing open accepted")
	}
	if _, err := fs.ListFiles("/missing"); err == nil {
		t.Error("missing list accepted")
	}
}

// TestLocalStampMovesWhenAFileIsReplaced: a file written to a temporary name
// and renamed over the old one — how a loader replaces a file whole — lists
// with a new stamp even within one timestamp tick, because its inode is new.
func TestLocalStampMovesWhenAFileIsReplaced(t *testing.T) {
	root := t.TempDir()
	fs := NewLocal(root)
	stamp := func() int64 {
		t.Helper()
		files, err := fs.ListFiles("/d")
		if err != nil || len(files) != 1 {
			t.Fatalf("files = %v, %v", files, err)
		}
		return files[0].Stamp
	}
	for _, p := range []string{"/d/f", "/tmp/f"} {
		w, _ := fs.Create(p)
		w.Write([]byte("same"))
		w.Close()
	}
	before := stamp()
	if err := os.Chtimes(fs.resolve("/tmp/f"), time.Time{}, time.Unix(0, before)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(fs.resolve("/tmp/f"), fs.resolve("/d/f")); err != nil {
		t.Fatal(err)
	}
	if after := stamp(); after == before {
		t.Errorf("a replaced file kept its stamp %d", after)
	}
}

func TestLocalListSkipsDirs(t *testing.T) {
	root := t.TempDir()
	fs := NewLocal(root)
	for _, p := range []string{"/d/file1", "/d/sub/file2"} {
		w, _ := fs.Create(p)
		w.Write([]byte("x"))
		w.Close()
	}
	files, err := fs.ListFiles("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Path != "/d/file1" {
		t.Fatalf("files = %v", files)
	}
}

func TestBytesFile(t *testing.T) {
	f := &BytesFile{Data: []byte("0123456789")}
	if f.Size() != 10 {
		t.Errorf("size = %d", f.Size())
	}
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 3); err != nil || n != 4 || string(buf) != "3456" {
		t.Fatalf("read = %q, %d, %v", buf, n, err)
	}
	// Short read at the tail returns io.EOF.
	if n, err := f.ReadAt(buf, 8); err != io.EOF || n != 2 {
		t.Errorf("tail read = %d, %v", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("past-end read = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("close = %v", err)
	}
}
