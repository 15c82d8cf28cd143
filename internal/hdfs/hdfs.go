// Package hdfs simulates a Hadoop Distributed File System: an in-memory
// NameNode (namespace + metadata RPCs) and DataNode (block contents). The
// simulation is behavioral, not byte-level: what matters for the paper's
// experiments is that ListFiles and Open are *remote calls with per-call
// latency and counters* — the quantities the file-list, footer and chunk
// caches of §VII reduce.
package hdfs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/fsys"
)

// Counters tracks NameNode/DataNode RPC volume.
type Counters struct {
	ListFilesCalls atomic.Int64
	// GetFileInfoCalls stays 0: a scan stats nothing, because the listing
	// carries every file's size and stamp. Benchmarks report it to show so.
	GetFileInfoCalls atomic.Int64
	OpenCalls        atomic.Int64
	// ReadCalls counts ReadAt calls on open files: the storage round trips
	// of the read path, each charged Config.ReadLatency.
	ReadCalls atomic.Int64
	BytesRead atomic.Int64
}

// Config tunes the simulation.
type Config struct {
	// ListFilesLatency is charged per ListFiles RPC.
	ListFilesLatency time.Duration
	// GetFileInfoLatency is charged per Open: the NameNode round trip that
	// locates the file's blocks.
	GetFileInfoLatency time.Duration
	// ReadLatency is charged per ReadAt call (seek + fetch).
	ReadLatency time.Duration
}

// NameNode is the simulated filesystem. It implements fsys.FileSystem.
type NameNode struct {
	cfg Config

	mu    sync.RWMutex
	files map[string]hdfsEntry // path -> content
	gen   int64                // bumped by every Close of a written file

	// Counters are exported for experiments.
	Counters Counters
}

// New creates an empty simulated HDFS.
func New(cfg Config) *NameNode {
	return &NameNode{cfg: cfg, files: map[string]hdfsEntry{}}
}

// hdfsEntry is one file's content and the generation that wrote it, which is
// the stamp its listings carry.
type hdfsEntry struct {
	data []byte
	gen  int64
}

func (n *NameNode) metaSleep(base time.Duration) {
	if base > 0 {
		time.Sleep(base)
	}
}

func clean(p string) string {
	return strings.TrimSuffix(strings.TrimPrefix(p, "/"), "/")
}

// ListFiles implements fsys.FileSystem: one NameNode RPC.
func (n *NameNode) ListFiles(dir string) ([]fsys.FileInfo, error) {
	n.Counters.ListFilesCalls.Add(1)
	n.metaSleep(n.cfg.ListFilesLatency)
	dir = clean(dir)
	prefix := dir + "/"
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []fsys.FileInfo
	seenDir := false
	for path, e := range n.files {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		seenDir = true
		rest := path[len(prefix):]
		if strings.Contains(rest, "/") {
			continue // deeper level
		}
		out = append(out, fsys.FileInfo{Path: "/" + path, Size: int64(len(e.data)), Stamp: e.gen})
	}
	if !seenDir {
		return nil, fmt.Errorf("hdfs: directory %q does not exist", dir)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Open implements fsys.FileSystem.
func (n *NameNode) Open(path string) (fsys.File, error) {
	n.Counters.OpenCalls.Add(1)
	n.metaSleep(n.cfg.GetFileInfoLatency)
	n.mu.RLock()
	e, ok := n.files[clean(path)]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q does not exist", path)
	}
	return &hdfsFile{nn: n, data: e.data}, nil
}

// Create implements fsys.FileSystem: buffered until Close.
func (n *NameNode) Create(path string) (io.WriteCloser, error) {
	return &hdfsWriter{nn: n, path: clean(path)}, nil
}

type hdfsFile struct {
	nn   *NameNode
	data []byte
}

func (f *hdfsFile) ReadAt(p []byte, off int64) (int, error) {
	f.nn.Counters.ReadCalls.Add(1)
	if f.nn.cfg.ReadLatency > 0 {
		time.Sleep(f.nn.cfg.ReadLatency)
	}
	if off >= int64(len(f.data)) {
		return 0, fmt.Errorf("hdfs: read past end (off %d, size %d)", off, len(f.data))
	}
	n := copy(p, f.data[off:])
	f.nn.Counters.BytesRead.Add(int64(n))
	if n < len(p) {
		return n, fmt.Errorf("hdfs: short read")
	}
	return n, nil
}

func (f *hdfsFile) Close() error { return nil }
func (f *hdfsFile) Size() int64  { return int64(len(f.data)) }

type hdfsWriter struct {
	nn   *NameNode
	path string
	buf  []byte
}

func (w *hdfsWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *hdfsWriter) Close() error {
	w.nn.mu.Lock()
	defer w.nn.mu.Unlock()
	w.nn.gen++
	w.nn.files[w.path] = hdfsEntry{data: w.buf, gen: w.nn.gen}
	return nil
}
