package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/parquet"
	"prestolite/internal/s3"
	"prestolite/internal/types"
)

// RunS3 reproduces the §IX optimizations: lazy seek (fewer GET connections),
// exponential backoff (success under throttling), S3 Select (bytes shipped)
// and multipart upload (parallel puts).
func RunS3(rows int) (*Report, error) {
	report := &Report{
		Experiment: "§IX PrestoS3FileSystem optimizations",
		Columns:    []string{"baseline", "optimized", "ratio"},
	}

	// Build one parquet object.
	build := func(store *s3.Store) (string, error) {
		fs := s3.NewFileSystem(store, s3.DefaultConfig())
		schema, err := parquet.NewSchema([]string{"id", "payload"}, []*types.Type{types.Bigint, types.Varchar})
		if err != nil {
			return "", err
		}
		w, err := fs.Create("/lake/t/part-0")
		if err != nil {
			return "", err
		}
		pw, err := parquet.NewNativeWriter(w, schema, parquet.WriterOptions{RowGroupRows: 1024})
		if err != nil {
			return "", err
		}
		pb := block.NewPageBuilder(schema.Types)
		for i := 0; i < rows; i++ {
			pb.AppendRow([]any{int64(i), fmt.Sprintf("payload-%06d-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", i)})
		}
		if err := pw.WritePage(pb.Build()); err != nil {
			return "", err
		}
		if err := pw.Close(); err != nil {
			return "", err
		}
		return "/lake/t/part-0", w.Close()
	}

	scan := func(lazy bool) (int64, error) {
		store := s3.NewStore(s3.Config{})
		path, err := build(store)
		if err != nil {
			return 0, err
		}
		cfg := s3.DefaultConfig()
		cfg.LazySeek = lazy
		fs := s3.NewFileSystem(store, cfg)
		store.Counters.GetRequests.Store(0)
		f, err := fs.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		// Lazy seek serves a reader that walks the file one chunk after the
		// other, which the legacy reader does: 2 GETs for the footer and one
		// per chunk without it, one reused stream with it. The columnar
		// reader no longer reads that way — its I/O plan fetches the touching
		// chunks of a row group as one range and the row groups concurrently
		// (51 GETs for this file, lazy seek or not) — so it leaves lazy seek
		// nothing to coalesce and would only measure which of the concurrent
		// reads happens to find the stream where it left off.
		r, err := parquet.NewLegacyReader(f, nil)
		if err != nil {
			return 0, err
		}
		for {
			if _, err := r.Next(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return 0, err
			}
		}
		return store.Counters.GetRequests.Load(), nil
	}
	eagerGets, err := scan(false)
	if err != nil {
		return nil, err
	}
	lazyGets, err := scan(true)
	if err != nil {
		return nil, err
	}
	report.Rows = append(report.Rows, Row{
		Name: "GET requests per full scan (lazy seek)",
		Values: map[string]float64{
			"baseline": float64(eagerGets), "optimized": float64(lazyGets),
			"ratio": float64(eagerGets) / float64(lazyGets),
		},
	})

	// Backoff under throttling: fraction of operations that succeed.
	attempt := func(retries int) float64 {
		store := s3.NewStore(s3.Config{ThrottleEvery: 3})
		cfg := s3.DefaultConfig()
		cfg.MaxRetries = retries
		cfg.BaseBackoff = 50 * time.Microsecond
		fs := s3.NewFileSystem(store, cfg)
		ok := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			w, _ := fs.Create(fmt.Sprintf("/k%d", i)) // in-memory store: Create cannot fail
			_, _ = w.Write([]byte("v"))               // buffered write; upload errors surface at Close
			if err := w.Close(); err == nil {
				ok++
			}
		}
		return float64(ok) / trials * 100
	}
	report.Rows = append(report.Rows, Row{
		Name: "PUT success rate under throttling %",
		Values: map[string]float64{
			"baseline": attempt(0), "optimized": attempt(7), "ratio": 0,
		},
		Note: "baseline = no retries, optimized = exponential backoff",
	})

	// S3 Select: bytes shipped for a 1-column projection.
	store := s3.NewStore(s3.Config{})
	path, err := build(store)
	if err != nil {
		return nil, err
	}
	objSize, err := store.Head(path[1:])
	if err != nil {
		return nil, err
	}
	store.Counters.BytesReturned.Store(0)
	if _, err := store.SelectObject(path[1:], []string{"id"}, nil); err != nil {
		return nil, err
	}
	selectBytes := store.Counters.BytesReturned.Load()
	report.Rows = append(report.Rows, Row{
		Name: "bytes shipped: full GET vs S3 Select",
		Values: map[string]float64{
			"baseline": float64(objSize), "optimized": float64(selectBytes),
			"ratio": float64(objSize) / float64(selectBytes),
		},
	})
	report.Summary = "lazy seek coalesces sequential chunk reads; backoff rides out 503s; S3 Select ships only projected columns"
	return report, nil
}
