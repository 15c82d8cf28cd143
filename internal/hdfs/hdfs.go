// Package hdfs simulates a Hadoop Distributed File System: an in-memory
// NameNode (namespace + metadata RPCs) and DataNode (block contents). The
// simulation is behavioral, not byte-level: what matters for the paper's
// experiments is that ListFiles and GetFileInfo are *remote calls with
// per-call latency and counters* — the quantities the file-list and footer
// caches of §VII reduce — and that the NameNode can be degraded to reproduce
// the "listFiles stuck" incident of §XII.D.
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
	ListFilesCalls   atomic.Int64
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
	// GetFileInfoLatency is charged per GetFileInfo RPC.
	GetFileInfoLatency time.Duration
	// ReadLatency is charged per ReadAt call (seek + fetch).
	ReadLatency time.Duration
}

// NameNode is the simulated filesystem. It implements fsys.FileSystem.
type NameNode struct {
	cfg Config

	mu    sync.RWMutex
	files map[string][]byte // path -> content

	// Counters are exported for experiments.
	Counters Counters

	// degraded multiplies metadata latencies (the §XII.D incident).
	degraded atomic.Int64 // multiplier-1; 0 = healthy
}

// New creates an empty simulated HDFS.
func New(cfg Config) *NameNode {
	return &NameNode{cfg: cfg, files: map[string][]byte{}}
}

// Degrade multiplies metadata RPC latency by factor (>=1). Factor 1 restores
// health.
func (n *NameNode) Degrade(factor int) {
	if factor < 1 {
		factor = 1
	}
	n.degraded.Store(int64(factor - 1))
}

func (n *NameNode) metaSleep(base time.Duration) {
	if base <= 0 {
		return
	}
	mult := time.Duration(n.degraded.Load() + 1)
	time.Sleep(base * mult)
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
	for path, data := range n.files {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		seenDir = true
		rest := path[len(prefix):]
		if strings.Contains(rest, "/") {
			continue // deeper level
		}
		out = append(out, fsys.FileInfo{Path: "/" + path, Size: int64(len(data))})
	}
	if !seenDir {
		return nil, fmt.Errorf("hdfs: directory %q does not exist", dir)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// ListDirs lists immediate subdirectories (used for partition discovery).
func (n *NameNode) ListDirs(dir string) ([]string, error) {
	n.Counters.ListFilesCalls.Add(1)
	n.metaSleep(n.cfg.ListFilesLatency)
	dir = clean(dir)
	prefix := dir + "/"
	n.mu.RLock()
	defer n.mu.RUnlock()
	seen := map[string]bool{}
	for path := range n.files {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		rest := path[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seen[rest[:i]] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out, nil
}

// GetFileInfo implements fsys.FileSystem: one NameNode RPC.
func (n *NameNode) GetFileInfo(path string) (fsys.FileInfo, error) {
	n.Counters.GetFileInfoCalls.Add(1)
	n.metaSleep(n.cfg.GetFileInfoLatency)
	n.mu.RLock()
	defer n.mu.RUnlock()
	data, ok := n.files[clean(path)]
	if !ok {
		return fsys.FileInfo{}, fmt.Errorf("hdfs: file %q does not exist", path)
	}
	return fsys.FileInfo{Path: path, Size: int64(len(data))}, nil
}

// Open implements fsys.FileSystem.
func (n *NameNode) Open(path string) (fsys.File, error) {
	n.Counters.OpenCalls.Add(1)
	n.metaSleep(n.cfg.GetFileInfoLatency)
	n.mu.RLock()
	data, ok := n.files[clean(path)]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q does not exist", path)
	}
	return &hdfsFile{nn: n, data: data}, nil
}

// Create implements fsys.FileSystem: buffered until Close.
func (n *NameNode) Create(path string) (io.WriteCloser, error) {
	return &hdfsWriter{nn: n, path: clean(path)}, nil
}

// Delete removes a file.
func (n *NameNode) Delete(path string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.files, clean(path))
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
	w.nn.files[w.path] = w.buf
	return nil
}

// ---------------------------------------------------------------------------
// Observer NameNode (§VII: "one [effort] is to roll out HDFS Observer
// NameNode in production"): a read-only replica that serves metadata reads
// (ListFiles / GetFileInfo / Open), offloading the active NameNode. Writes
// still go to the active node and replicate synchronously (this simulation
// shares the namespace map, so reads are always consistent).

// Observer is a read-routing view over a NameNode with its own RPC counters
// and latency profile.
type Observer struct {
	active *NameNode
	cfg    Config

	// Counters tracks reads served by the observer instead of the active
	// NameNode.
	Counters Counters
}

// NewObserver attaches an observer to an active NameNode.
func NewObserver(active *NameNode, cfg Config) *Observer {
	return &Observer{active: active, cfg: cfg}
}

func (o *Observer) metaSleep(base time.Duration) {
	if base > 0 {
		time.Sleep(base)
	}
}

// ListFiles implements fsys.FileSystem, served by the observer.
func (o *Observer) ListFiles(dir string) ([]fsys.FileInfo, error) {
	o.Counters.ListFilesCalls.Add(1)
	o.metaSleep(o.cfg.ListFilesLatency)
	return o.active.listLocked(dir)
}

// GetFileInfo implements fsys.FileSystem, served by the observer.
func (o *Observer) GetFileInfo(path string) (fsys.FileInfo, error) {
	o.Counters.GetFileInfoCalls.Add(1)
	o.metaSleep(o.cfg.GetFileInfoLatency)
	o.active.mu.RLock()
	defer o.active.mu.RUnlock()
	data, ok := o.active.files[clean(path)]
	if !ok {
		return fsys.FileInfo{}, fmt.Errorf("hdfs: file %q does not exist", path)
	}
	return fsys.FileInfo{Path: path, Size: int64(len(data))}, nil
}

// Open implements fsys.FileSystem; block reads come from DataNodes either
// way, so the observer only saves the metadata RPC.
func (o *Observer) Open(path string) (fsys.File, error) {
	o.Counters.OpenCalls.Add(1)
	o.metaSleep(o.cfg.GetFileInfoLatency)
	o.active.mu.RLock()
	data, ok := o.active.files[clean(path)]
	o.active.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q does not exist", path)
	}
	return &hdfsFile{nn: o.active, data: data}, nil
}

// Create implements fsys.FileSystem: writes always go to the active
// NameNode.
func (o *Observer) Create(path string) (io.WriteCloser, error) {
	return o.active.Create(path)
}

// listLocked shares the listing logic without charging the active node's
// counters or latency.
func (n *NameNode) listLocked(dir string) ([]fsys.FileInfo, error) {
	dir = clean(dir)
	prefix := dir + "/"
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []fsys.FileInfo
	seenDir := false
	for path, data := range n.files {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		seenDir = true
		rest := path[len(prefix):]
		if strings.Contains(rest, "/") {
			continue
		}
		out = append(out, fsys.FileInfo{Path: "/" + path, Size: int64(len(data))})
	}
	if !seenDir {
		return nil, fmt.Errorf("hdfs: directory %q does not exist", dir)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}
