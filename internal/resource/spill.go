package resource

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"prestolite/internal/block"
	"prestolite/internal/fsys"
	"prestolite/internal/obs"
	"prestolite/internal/snappy"
)

// ErrSpillBudgetExhausted: the spill disk budget is gone; the degradation
// ladder falls back to the "Insufficient Resources" failure (or the OOM
// killer) from here.
var ErrSpillBudgetExhausted = errors.New("resource: spill disk budget exhausted")

// SpillManager hands out spill runs — temp files of snappy-compressed page
// frames under one node-local directory — and tracks the disk budget plus
// the set of live runs (so tests can assert nothing leaks). Spill files are
// written and read through internal/fsys; they are node-local scratch, so
// deletion uses the OS directly.
type SpillManager struct {
	dir    string
	fs     *fsys.Local
	budget int64 // bytes on disk across all live runs; 0 = unlimited
	used   atomic.Int64
	seq    atomic.Int64

	spills       *obs.Counter // runs written
	spilledBytes *obs.Counter // compressed bytes written

	mu   sync.Mutex
	live map[string]struct{} // relative paths of live run files
}

// NewSpillManager creates a manager rooted at dir (created if missing).
// budget 0 means unlimited disk.
func NewSpillManager(dir string, budget int64) (*SpillManager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resource: spill dir %s: %w", dir, err)
	}
	return &SpillManager{dir: dir, fs: fsys.NewLocal(dir), budget: budget, live: map[string]struct{}{}}, nil
}

// SetCounters wires the spills / spilled_bytes metrics (either may be nil).
func (m *SpillManager) SetCounters(spills, spilledBytes *obs.Counter) {
	m.spills = spills
	m.spilledBytes = spilledBytes
}

// LiveRuns returns the relative paths of runs not yet removed, sorted —
// the leak-check hook: after a query (or the whole suite) finishes it must
// be empty.
//
//lint:ignore reachability the leak check: how tests in execution, core and cluster assert a query removed every run it spilled
func (m *SpillManager) LiveRuns() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.live))
	for p := range m.live {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// RemoveAll force-removes every live run (worker shutdown: no task will
// read them again).
func (m *SpillManager) RemoveAll() {
	m.mu.Lock()
	paths := make([]string, 0, len(m.live))
	for p := range m.live {
		paths = append(paths, p)
	}
	m.live = map[string]struct{}{}
	m.mu.Unlock()
	for _, p := range paths {
		_ = os.Remove(filepath.Join(m.dir, p)) // best-effort scratch cleanup on shutdown
	}
	m.used.Store(0)
}

// NewRun opens a run writer. tag names the spilling operator (it becomes
// part of the file name, for debuggability).
func (m *SpillManager) NewRun(tag string) (*RunWriter, error) {
	name := fmt.Sprintf("spill-%s-%d.run", sanitizeTag(tag), m.seq.Add(1))
	w, err := m.fs.Create(name)
	if err != nil {
		return nil, fmt.Errorf("resource: creating spill run: %w", err)
	}
	m.mu.Lock()
	m.live[name] = struct{}{}
	m.mu.Unlock()
	if m.spills != nil {
		m.spills.Inc()
	}
	return &RunWriter{m: m, name: name, w: w}, nil
}

// sanitizeTag keeps spill file names filesystem-safe.
func sanitizeTag(tag string) string {
	out := make([]byte, 0, len(tag))
	for i := 0; i < len(tag); i++ {
		c := tag[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// RunWriter streams page frames into one spill file. Frames are
// [uvarint compressed length][snappy(EncodePage)].
type RunWriter struct {
	m       *SpillManager
	name    string
	w       io.WriteCloser
	written int64
	scratch []byte
	pages   int
}

// WritePage appends one page frame, charging the disk budget. On a budget
// miss nothing is written and ErrSpillBudgetExhausted is returned; the
// caller abandons the run (Abandon) and falls back up the ladder.
func (w *RunWriter) WritePage(p *block.Page) error {
	data, err := block.EncodePage(p)
	if err != nil {
		return fmt.Errorf("resource: encoding spill page: %w", err)
	}
	w.scratch = snappy.Encode(w.scratch, data)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(w.scratch)))
	frame := int64(n + len(w.scratch))
	used := w.m.used.Add(frame)
	if w.m.budget > 0 && used > w.m.budget {
		w.m.used.Add(-frame)
		return fmt.Errorf("%w: %d bytes used of %d", ErrSpillBudgetExhausted, w.m.used.Load(), w.m.budget)
	}
	if _, err := w.w.Write(hdr[:n]); err != nil {
		w.m.used.Add(-frame)
		return fmt.Errorf("resource: writing spill frame: %w", err)
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		w.m.used.Add(-frame)
		return fmt.Errorf("resource: writing spill frame: %w", err)
	}
	w.written += frame
	w.pages++
	if w.m.spilledBytes != nil {
		w.m.spilledBytes.Add(frame)
	}
	return nil
}

// Finish seals the run for reading.
func (w *RunWriter) Finish() (*Run, error) {
	if err := w.w.Close(); err != nil {
		return nil, fmt.Errorf("resource: closing spill run: %w", err)
	}
	return &Run{m: w.m, name: w.name, bytes: w.written, pages: w.pages}, nil
}

// Abandon closes and removes a half-written run (spill failed midway).
func (w *RunWriter) Abandon() {
	_ = w.w.Close() // already abandoning; nothing to report to
	w.m.remove(w.name, w.written)
}

// Run is one sealed spill file.
type Run struct {
	m     *SpillManager
	name  string
	bytes int64
	pages int
}

// Bytes returns the run's on-disk size.
func (r *Run) Bytes() int64 { return r.bytes }

// Open starts a sequential read of the run's pages.
func (r *Run) Open() (*RunReader, error) {
	f, err := r.m.fs.Open(r.name)
	if err != nil {
		return nil, fmt.Errorf("resource: opening spill run: %w", err)
	}
	return &RunReader{
		f:  f,
		br: bufio.NewReaderSize(io.NewSectionReader(f, 0, f.Size()), 64<<10),
	}, nil
}

// Remove deletes the run file and returns its bytes to the disk budget.
// Idempotent: double removal is a no-op.
func (r *Run) Remove() {
	if r.m.remove(r.name, r.bytes) {
		r.bytes = 0
	}
}

// remove drops name from the live set and the budget; reports whether the
// run was still live.
func (m *SpillManager) remove(name string, bytes int64) bool {
	m.mu.Lock()
	_, ok := m.live[name]
	delete(m.live, name)
	m.mu.Unlock()
	if !ok {
		return false
	}
	m.used.Add(-bytes)
	_ = os.Remove(filepath.Join(m.dir, name)) // best-effort local scratch removal
	return true
}

// RunReader iterates a run's pages in write order.
type RunReader struct {
	f       fsys.File
	br      *bufio.Reader
	scratch []byte
}

// Next returns the next page, io.EOF at the end.
func (rr *RunReader) Next() (*block.Page, error) {
	n, err := binary.ReadUvarint(rr.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("resource: reading spill frame header: %w", err)
	}
	if cap(rr.scratch) < int(n) {
		rr.scratch = make([]byte, n)
	}
	rr.scratch = rr.scratch[:n]
	if _, err := io.ReadFull(rr.br, rr.scratch); err != nil {
		return nil, fmt.Errorf("resource: reading spill frame: %w", err)
	}
	data, err := snappy.Decode(nil, rr.scratch)
	if err != nil {
		return nil, fmt.Errorf("resource: decompressing spill frame: %w", err)
	}
	p, err := block.DecodePage(data)
	if err != nil {
		return nil, fmt.Errorf("resource: decoding spill page: %w", err)
	}
	return p, nil
}

// Close releases the underlying file.
func (rr *RunReader) Close() error { return rr.f.Close() }
