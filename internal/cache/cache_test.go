package cache

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"prestolite/internal/fault"
	"prestolite/internal/fsys"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU[string, int](2, 0)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	// "a" is now most recent; inserting "c" evicts "b".
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should be evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	// Update existing key.
	c.Put("c", 30)
	if v, _ := c.Get("c"); v != 30 {
		t.Errorf("c = %d", v)
	}
}

func TestLRUTTL(t *testing.T) {
	c := NewLRU[string, int](10, time.Minute)
	clk := fault.NewManualClock(time.Unix(1000, 0))
	c.SetClock(clk)
	c.Put("k", 1)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Error("expired entry served")
	}
}

func TestMetrics(t *testing.T) {
	c := NewLRU[string, int](10, 0)
	c.Put("k", 1)
	c.Get("k")
	c.Get("k")
	c.Get("missing")
	if h := c.Metrics.Hits.Load(); h != 2 {
		t.Errorf("hits = %d", h)
	}
	if m := c.Metrics.Misses.Load(); m != 1 {
		t.Errorf("misses = %d", m)
	}
	if hr := c.Metrics.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %f", hr)
	}
	empty := NewLRU[string, int](10, 0)
	if empty.Metrics.HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

// countingFS counts ListFiles calls.
type countingFS struct {
	lists int
	fail  bool
}

func (f *countingFS) ListFiles(dir string) ([]fsys.FileInfo, error) {
	f.lists++
	if f.fail {
		return nil, errors.New("boom")
	}
	return []fsys.FileInfo{{Path: dir + "/f1", Size: 1}}, nil
}
func (f *countingFS) Open(path string) (fsys.File, error) { return &fsys.BytesFile{}, nil }
func (f *countingFS) Create(path string) (io.WriteCloser, error) {
	return nil, errors.New("read only")
}

func TestFileListCacheSealedVsOpen(t *testing.T) {
	fs := &countingFS{}
	c := NewFileListCache(fs, 16)
	for i := 0; i < 5; i++ {
		if _, err := c.List("/sealed", 1, true); err != nil {
			t.Fatal(err)
		}
	}
	if fs.lists != 1 {
		t.Errorf("sealed dir listed %d times, want 1", fs.lists)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.List("/open", 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if fs.lists != 6 {
		t.Errorf("open dir should bypass cache: %d lists", fs.lists)
	}
	if c.Metrics.Bypasses.Load() != 5 {
		t.Errorf("bypasses = %d", c.Metrics.Bypasses.Load())
	}
	// Errors are not cached.
	fs.fail = true
	if _, err := c.List("/other", 1, true); err == nil {
		t.Error("error should propagate")
	}
	// The partition registered again (a new metastore version) is listed
	// again; the old version's listing is no longer addressed.
	fs.fail = false
	c.List("/sealed", 2, true)
	c.List("/sealed", 2, true)
	if fs.lists != 8 { // 6 + failed /other + version 2
		t.Errorf("lists = %d", fs.lists)
	}
}

func TestFooterCache(t *testing.T) {
	c := NewFooterCache[string](16)
	loads := 0
	for i := 0; i < 4; i++ {
		// The same path written again lists with a new stamp: a new footer.
		stamp := int64(i / 2)
		v, err := c.GetFooter(FileID{"/f", stamp}, func() (string, error) {
			loads++
			return fmt.Sprint("footer@", stamp), nil
		})
		if want := fmt.Sprint("footer@", stamp); err != nil || v != want {
			t.Fatal(v, err)
		}
	}
	if loads != 2 {
		t.Errorf("footer loaded %d times, want once per stamp", loads)
	}
	if _, err := c.GetFooter(FileID{Path: "/bad"}, func() (string, error) { return "", errors.New("io") }); err == nil {
		t.Error("load error should propagate")
	}
}
