package s3

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/parquet"
	"prestolite/internal/types"
)

func TestPutGetHeadList(t *testing.T) {
	s := NewStore(Config{})
	if err := s.Put("warehouse/t/part-0", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	size, err := s.Head("warehouse/t/part-0")
	if err != nil || size != 11 {
		t.Fatalf("head = %d, %v", size, err)
	}
	r, err := s.GetRange("warehouse/t/part-0", 6)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(r, buf); err != nil || string(buf) != "world" {
		t.Fatalf("range read = %q, %v", buf, err)
	}
	s.Put("warehouse/t/part-1", []byte("x"))
	s.Put("warehouse/u/part-0", []byte("y"))
	objs, err := s.List("warehouse/t/")
	if err != nil || len(objs) != 2 {
		t.Fatalf("list = %v, %v", objs, err)
	}
	if _, err := s.Head("missing"); err == nil {
		t.Error("missing head accepted")
	}
	if _, err := s.GetRange("warehouse/t/part-0", 100); err == nil {
		t.Error("bad range accepted")
	}
}

func TestFileSystemInterface(t *testing.T) {
	s := NewStore(Config{})
	fs := NewFileSystem(s, DefaultConfig())
	w, err := fs.Create("/data/file1")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("0123456789"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.ListFiles("/data")
	if err != nil || len(infos) != 1 || infos[0].Size != 10 {
		t.Fatalf("list = %v, %v", infos, err)
	}
	f, err := fs.Open("/data/file1")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 3); err != nil || string(buf) != "3456" {
		t.Fatalf("read = %q, %v", buf, err)
	}
	if f.Size() != 10 {
		t.Errorf("size = %d", f.Size())
	}
}

func TestLazySeekReducesGetRequests(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 1024)

	run := func(lazy bool) int64 {
		s := NewStore(Config{})
		s.Put("obj", payload)
		cfg := DefaultConfig()
		cfg.LazySeek = lazy
		fs := NewFileSystem(s, cfg)
		f, err := fs.Open("/obj")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Sequential chunk reads — the column-chunk walk pattern.
		buf := make([]byte, 512)
		for off := int64(0); off+512 <= int64(len(payload)); off += 512 {
			if _, err := f.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
		}
		return s.Counters.GetRequests.Load()
	}

	lazyGets := run(true)
	eagerGets := run(false)
	if lazyGets != 1 {
		t.Errorf("lazy seek should coalesce sequential reads into 1 GET, got %d", lazyGets)
	}
	if eagerGets != 16 {
		t.Errorf("eager mode should issue one GET per read, got %d", eagerGets)
	}
}

func TestLazySeekRandomAccessStillCorrect(t *testing.T) {
	payload := []byte("0123456789abcdefghij")
	s := NewStore(Config{})
	s.Put("obj", payload)
	fs := NewFileSystem(s, DefaultConfig())
	f, _ := fs.Open("/obj")
	defer f.Close()
	buf := make([]byte, 3)
	// Backward seek forces a new GET but stays correct.
	f.ReadAt(buf, 10)
	if string(buf) != "abc" {
		t.Errorf("read = %q", buf)
	}
	f.ReadAt(buf, 0)
	if string(buf) != "012" {
		t.Errorf("read = %q", buf)
	}
	f.ReadAt(buf, 3)
	if string(buf) != "345" {
		t.Errorf("read = %q", buf)
	}
}

func TestExponentialBackoffSurvivesThrottling(t *testing.T) {
	s := NewStore(Config{ThrottleEvery: 3}) // every 3rd request fails
	cfg := DefaultConfig()
	cfg.BaseBackoff = 100 * time.Microsecond
	fs := NewFileSystem(s, cfg)
	for i := 0; i < 10; i++ {
		w, _ := fs.Create("/k")
		w.Write([]byte("v"))
		if err := w.Close(); err != nil {
			t.Fatalf("put %d failed despite backoff: %v", i, err)
		}
		if _, err := fs.Open("/k"); err != nil {
			t.Fatalf("head %d failed despite backoff: %v", i, err)
		}
	}
	if fs.Retries.N == 0 {
		t.Error("expected some retries")
	}
	if s.Counters.Throttles.Load() == 0 {
		t.Error("expected injected throttles")
	}

	// Without retries the same workload fails quickly.
	s2 := NewStore(Config{ThrottleEvery: 2})
	cfg2 := DefaultConfig()
	cfg2.MaxRetries = 0
	fs2 := NewFileSystem(s2, cfg2)
	failed := false
	for i := 0; i < 10; i++ {
		if _, err := fs2.Open("/nope-" + string(rune('a'+i))); err != nil {
			if _, transient := err.(ErrNoSuchKey); !transient {
				failed = true
				break
			}
		}
	}
	if !failed {
		t.Error("no-retry mode should surface throttling errors")
	}
}

func TestMultipartUpload(t *testing.T) {
	s := NewStore(Config{})
	cfg := DefaultConfig()
	cfg.MultipartPartSize = 1024
	fs := NewFileSystem(s, cfg)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB = 16 parts
	w, _ := fs.Create("/big")
	w.Write(payload)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != int64(len(payload)) {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, len(payload))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Error("multipart content mismatch")
	}
	// Parts uploaded in parallel: at least 16 put requests.
	if s.Counters.PutRequests.Load() < 16 {
		t.Errorf("puts = %d", s.Counters.PutRequests.Load())
	}
}

func TestParquetOnS3EndToEnd(t *testing.T) {
	// The §IX scenario: store data in S3, query it through the engine's
	// file format stack.
	s := NewStore(Config{})
	fs := NewFileSystem(s, DefaultConfig())
	schema, err := parquet.NewSchema([]string{"id", "name"}, []*types.Type{types.Bigint, types.Varchar})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := fs.Create("/lake/t/part-0")
	pw, err := parquet.NewNativeWriter(w, schema, parquet.WriterOptions{Codec: parquet.CodecSnappy})
	if err != nil {
		t.Fatal(err)
	}
	pb := block.NewPageBuilder(schema.Types)
	for i := 0; i < 100; i++ {
		pb.AppendRow([]any{int64(i), "row"})
	}
	pw.WritePage(pb.Build())
	pw.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := fs.Open("/lake/t/part-0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := parquet.NewReader(f, parquet.AllOptimizations([]string{"id"}, []expr.Comparison{
		{Column: "id", Op: expr.OpGte, Values: []any{int64(90)}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		p, err := r.Next()
		if err != nil {
			break
		}
		count += p.Count()
	}
	if count != 10 {
		t.Fatalf("rows = %d", count)
	}
}

func TestS3Select(t *testing.T) {
	s := NewStore(Config{})
	fs := NewFileSystem(s, DefaultConfig())
	schema, _ := parquet.NewSchema([]string{"id", "payload"}, []*types.Type{types.Bigint, types.Varchar})
	w, _ := fs.Create("/lake/sel/part-0")
	pw, _ := parquet.NewNativeWriter(w, schema, parquet.WriterOptions{})
	pb := block.NewPageBuilder(schema.Types)
	for i := 0; i < 1000; i++ {
		pb.AppendRow([]any{int64(i), strings.Repeat("x", 100)})
	}
	pw.WritePage(pb.Build())
	pw.Close()
	w.Close()

	before := s.Counters.BytesReturned.Load()
	pages, err := s.SelectObject("lake/sel/part-0", []string{"id"}, []expr.Comparison{
		{Column: "id", Op: expr.OpLt, Values: []any{int64(10)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, p := range pages {
		rows += p.Count()
	}
	if rows != 10 {
		t.Fatalf("select rows = %d", rows)
	}
	selectBytes := s.Counters.BytesReturned.Load() - before
	objSize, _ := s.Head("lake/sel/part-0")
	if selectBytes >= objSize/10 {
		t.Errorf("s3 select returned %d bytes of a %d byte object — pushdown should ship far less", selectBytes, objSize)
	}
	if _, err := s.SelectObject("missing", []string{"id"}, nil); err == nil {
		t.Error("missing key accepted")
	}
}

// TestStampIsTheObjectGeneration: every write of a key — a Put or a completed
// multipart upload — gives the object a new generation, and PrestoS3FileSystem
// listings carry it as the file's stamp, as a client would the ETag.
func TestStampIsTheObjectGeneration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MultipartPartSize = 4
	fs := NewFileSystem(NewStore(Config{}), cfg)
	write := func(path, body string) {
		t.Helper()
		w, _ := fs.Create(path)
		w.Write([]byte(body))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stamps := func() []int64 {
		t.Helper()
		files, err := fs.ListFiles("/d")
		if err != nil || len(files) != 2 {
			t.Fatalf("files = %v, %v", files, err)
		}
		return []int64{files[0].Stamp, files[1].Stamp}
	}
	write("/d/a", "abc")
	write("/d/b", "abc")
	first := stamps()
	write("/d/a", "abc") // the same bytes again, by one Put
	second := stamps()
	write("/d/a", "abcdefghij") // by a multipart upload
	third := stamps()
	if second[0] == first[0] || third[0] == second[0] || third[1] != first[1] {
		t.Errorf("stamps %v -> %v -> %v: want a's moved by every write and b's kept", first, second, third)
	}
}
