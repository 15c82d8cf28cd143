package s3

import (
	"errors"
	"fmt"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/parquet"
)

// SelectObject is S3 Select (§IX optimization 3): the projection (and
// optionally a predicate) is pushed to the storage service, which scans the
// object server-side and returns only the requested data. BytesReturned
// counts only the shipped result, so experiments can compare against
// fetching whole objects.
func (s *Store) SelectObject(key string, columns []string, preds []expr.Comparison) ([]*block.Page, error) {
	if err := s.maybeFail(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	obj, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNoSuchKey{Key: key}
	}
	// Server-side scan: no GET counters, no per-range latency — the service
	// reads its own storage.
	r, err := parquet.NewReader(&fsFileNoCounters{data: obj.data}, parquet.AllOptimizations(columns, preds))
	if err != nil {
		return nil, fmt.Errorf("s3 select: %w", err)
	}
	var out []*block.Page
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("s3 select: %w", err)
		}
		s.Counters.BytesReturned.Add(int64(p.SizeBytes()))
		out = append(out, p)
	}
	return out, nil
}

// fsFileNoCounters reads object bytes without charging request counters.
type fsFileNoCounters struct {
	data []byte
}

func (f *fsFileNoCounters) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *fsFileNoCounters) Close() error { return nil }
func (f *fsFileNoCounters) Size() int64  { return int64(len(f.data)) }
