// Package hive implements the warehouse connector: tables are directories
// of columnar files on a FileSystem (simulated HDFS, local disk, or S3),
// schemas live in the external metastore, and partitions are subdirectories
// keyed like datestr=2017-03-02 (the layout Uber's trips tables use, §II/§V).
//
// The connector exercises the full §IV pushdown surface (predicate,
// projection, limit, and a global count/min/max answered from the Parquet
// footers), routes listFiles through the coordinator file-list
// cache and footer reads through the worker footer cache (§VII), prunes
// partitions from pushed predicates, and reads files with either the legacy
// or the new Parquet reader (§V). The caches key by identity — a partition's
// metastore version, the stamp a file was listed with — so nothing is
// invalidated when files or partitions change.
package hive

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/frame"
	"prestolite/internal/fsys"
	"prestolite/internal/metastore"
	"prestolite/internal/obs"
	"prestolite/internal/parquet"
	"prestolite/internal/types"
)

// Options configures reader strategy and caches.
type Options struct {
	// UseLegacyReader selects the old row-based reader (§V.C) instead of
	// the new columnar reader.
	UseLegacyReader bool
	// Reader toggles each new-reader optimization; zero value = all on.
	Reader ReaderToggles
	// DisableFileListCache turns off §VII.A caching.
	DisableFileListCache bool
	// DisableFooterCache turns off §VII.B caching: every split reads its
	// file's footer.
	DisableFooterCache bool
	// DisableChunkCache turns off the worker-local data cache for
	// decompressed column chunks (§VII tier 1).
	DisableChunkCache bool
	// ChunkCacheBytes bounds the chunk cache (default 64 MiB).
	ChunkCacheBytes int64
}

// ReaderToggles disables individual optimizations (all false = everything
// enabled; the ablation benches flip one at a time).
type ReaderToggles struct {
	NoColumnPruning      bool
	NoPredicatePushdown  bool
	NoDictionaryPushdown bool
	NoLazyReads          bool
	NoVectorized         bool
}

// Connector is the hive-style connector.
type Connector struct {
	name string
	ms   *metastore.Metastore
	fs   fsys.FileSystem
	opts Options

	listCache   *cache.FileListCache
	footerCache *cache.FooterCache[footerEntry]
	chunkCache  *cache.ChunkCache

	// readerMetrics sums the work of every new-reader instance the connector
	// opens (the legacy reader counts nothing).
	readerMetrics parquet.Metrics
}

type footerEntry struct {
	meta   *parquet.FileMeta
	schema *parquet.Schema
}

// New creates a hive connector over a metastore and filesystem.
func New(name string, ms *metastore.Metastore, fs fsys.FileSystem, opts Options) *Connector {
	return &Connector{
		name:        name,
		ms:          ms,
		fs:          fs,
		opts:        opts,
		listCache:   cache.NewFileListCache(fs, 4096),
		footerCache: cache.NewFooterCache[footerEntry](8192),
		chunkCache:  cache.NewChunkCache(opts.ChunkCacheBytes),
	}
}

// SnapshotVersion implements connector.SnapshotVersioner from the
// metastore's per-table change version. A table with an open partition has
// none: files land in it without the metastore hearing of it.
func (c *Connector) SnapshotVersion(schema, table string) (int64, bool) {
	t, err := c.ms.GetTable(schema, table)
	if err != nil || t.HasOpenPartition() {
		return 0, false
	}
	return t.Version(), true
}

// FileListCacheMetrics exposes §VII.A cache effectiveness.
func (c *Connector) FileListCacheMetrics() *cache.Metrics { return c.listCache.Metrics }

// FooterCacheMetrics exposes §VII.B cache effectiveness.
func (c *Connector) FooterCacheMetrics() *cache.Metrics { return c.footerCache.Metrics }

// RegisterObsMetrics implements obs.MetricsSource: the §VII cache hit rates
// appear in /v1/stats snapshots and EXPLAIN ANALYZE cache footers.
func (c *Connector) RegisterObsMetrics(reg *obs.Registry) {
	c.listCache.Metrics.RegisterObs(reg, c.name+".cache.file_list")
	c.footerCache.Metrics.RegisterObs(reg, c.name+".cache.footer")
	c.chunkCache.Metrics.RegisterObs(reg, c.name+".cache.chunk")
	// What pushdown saved (row groups skipped by statistics and by
	// dictionary) and what the scans still cost. leaves_decoded over
	// row_groups_read is the width of the average scan: 26 when a query
	// reads the whole trips.base struct, 2 when nested column pruning
	// reached the scan.
	m := &c.readerMetrics
	for name, v := range map[string]*atomic.Int64{
		"row_groups_read":          &m.RowGroupsRead,
		"row_groups_skipped_stats": &m.RowGroupsSkippedStats,
		"row_groups_skipped_dict":  &m.RowGroupsSkippedDict,
		"leaves_decoded":           &m.LeavesDecoded,
		"rows_scanned":             &m.RowsScanned,
		"rows_matched":             &m.RowsMatched,
		// What the scans asked of storage: batches of ranges fetched
		// together (a round trip each), ranges (a ReadAt each) and bytes.
		"fetch_batches": &m.FetchBatches,
		"ranges_read":   &m.RangesRead,
		"bytes_read":    &m.BytesRead,

		// What the footer statistics settled without evaluating: row
		// groups a pushed aggregate was answered from, and predicates
		// every row of a row group passes.
		"row_groups_answered_stats": &m.RowGroupsAnsweredStats,
		"predicates_covered":        &m.PredicatesCovered,
	} {
		v := v
		reg.GaugeFunc(c.name+".reader."+name, func() float64 { return float64(v.Load()) })
	}
}

// ChunkCacheMetrics exposes the tier-1 data cache effectiveness.
func (c *Connector) ChunkCacheMetrics() *cache.Metrics { return &c.chunkCache.Metrics }

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// Metadata implements connector.Connector.
func (c *Connector) Metadata() connector.Metadata { return (*hiveMetadata)(c) }

// SplitManager implements connector.Connector.
func (c *Connector) SplitManager() connector.SplitManager { return (*hiveSplits)(c) }

// RecordSetProvider implements connector.Connector.
func (c *Connector) RecordSetProvider() connector.RecordSetProvider { return (*hiveRecords)(c) }

// allColumns returns data columns followed by partition-key virtual columns.
func allColumns(t *metastore.Table) []connector.Column {
	out := make([]connector.Column, 0, len(t.Columns)+len(t.PartitionKeys))
	for _, col := range t.Columns {
		out = append(out, connector.Column{Name: col.Name, Type: col.Type})
	}
	for _, k := range t.PartitionKeys {
		out = append(out, connector.Column{Name: k, Type: types.Varchar})
	}
	return out
}

// TableHandle carries table identity plus pushed-down state; its binary
// form (AppendWire) ships it to workers.
type TableHandle struct {
	Schema string
	Table  string
	// PartitionPreds prune partitions by key value.
	PartitionPreds []expr.Comparison
	// DataPreds evaluate inside the reader (§V.F/§V.G).
	DataPreds []expr.Comparison
	// Projection lists retained table ordinals (nil = all).
	Projection []int
	// NestedPaths, when set, replaces the scan's output with these dotted
	// struct paths (nested column pruning, §V.D).
	NestedPaths []string
	// Limit is a per-split row limit (-1 = none).
	Limit int64
	// Aggs, when set, replaces the scan's output with one partial row per
	// split of these global aggregates, answered from the footer where the
	// statistics prove the answer (PushAggregation).
	Aggs []Aggregate
}

// Description implements connector.TableHandle.
func (h *TableHandle) Description() string {
	s := fmt.Sprintf("hive:%s.%s", h.Schema, h.Table)
	for _, p := range h.PartitionPreds {
		s += fmt.Sprintf(" partition[%s]", p)
	}
	for _, p := range h.DataPreds {
		s += fmt.Sprintf(" predicate[%s]", p)
	}
	if h.Projection != nil {
		s += fmt.Sprintf(" columns=%v", h.Projection)
	}
	if h.NestedPaths != nil {
		s += fmt.Sprintf(" nestedPaths=%v", h.NestedPaths)
	}
	if h.Limit >= 0 {
		s += fmt.Sprintf(" limit=%d", h.Limit)
	}
	if h.Aggs != nil {
		s += fmt.Sprintf(" aggregates=%v", h.Aggs)
	}
	return s
}

// Split is one file of one partition, with the size and stamp its listing
// gave it: the worker keys the file's footer and chunks by (Path, Stamp) and
// stats nothing.
type Split struct {
	Handle          *TableHandle
	Path            string
	Size            int64
	Stamp           int64
	PartitionValues map[string]string
}

// Description implements connector.Split.
func (s *Split) Description() string { return "hive:" + s.Path }

// AppendWire implements connector.Encoder.
func (h *TableHandle) AppendWire(dst []byte) []byte {
	dst = frame.AppendString(frame.AppendString(dst, h.Schema), h.Table)
	dst = expr.AppendComparisons(dst, h.PartitionPreds)
	dst = expr.AppendComparisons(dst, h.DataPreds)
	dst = frame.AppendStrings(frame.AppendInts(dst, h.Projection), h.NestedPaths)
	dst = frame.AppendUvarint(frame.AppendVarint(dst, h.Limit), uint64(len(h.Aggs)))
	for _, a := range h.Aggs {
		dst = frame.AppendVarint(frame.AppendString(dst, a.Func), int64(a.Column))
	}
	return dst
}

// AppendWire implements connector.Encoder.
func (s *Split) AppendWire(dst []byte) []byte {
	dst = frame.AppendString(s.Handle.AppendWire(dst), s.Path)
	dst = frame.AppendVarint(frame.AppendVarint(dst, s.Size), s.Stamp)
	return frame.AppendStringMap(dst, s.PartitionValues)
}

// DecodeHandle implements connector.Decoder.
func (c *Connector) DecodeHandle(r *frame.Reader) connector.TableHandle { return readHandle(r) }

// DecodeSplit implements connector.Decoder. A negative size is refused.
func (c *Connector) DecodeSplit(r *frame.Reader) connector.Split {
	s := &Split{Handle: readHandle(r), Path: r.Str(), Size: r.Varint(), Stamp: r.Varint()}
	if s.Size < 0 {
		r.Fail(fmt.Errorf("hive: split of %s has negative size %d", s.Path, s.Size))
	}
	s.PartitionValues = r.StrMap()
	return s
}

func readHandle(r *frame.Reader) *TableHandle {
	h := &TableHandle{
		Schema:         r.Str(),
		Table:          r.Str(),
		PartitionPreds: expr.ReadComparisons(r),
		DataPreds:      expr.ReadComparisons(r),
		Projection:     r.Ints(),
		NestedPaths:    r.Strs(),
		Limit:          r.Varint(),
	}
	// Count checks the aggregates against the bytes left before allocating;
	// their functions and ordinals are checked against the table when a
	// split is read.
	if n := r.Count(); n > 0 {
		h.Aggs = make([]Aggregate, n)
		for i := range h.Aggs {
			h.Aggs[i] = Aggregate{Func: r.Str(), Column: int(r.Varint())}
		}
	}
	return h
}

// ---------------------------------------------------------------------------

type hiveMetadata Connector

func (m *hiveMetadata) ListTables(schema string) ([]string, error) {
	return (*Connector)(m).ms.ListTables(schema), nil
}

func (m *hiveMetadata) GetTable(schema, table string) (*connector.TableSchema, connector.TableHandle, error) {
	t, err := (*Connector)(m).ms.GetTable(schema, table)
	if err != nil {
		return nil, nil, err
	}
	return &connector.TableSchema{
		Catalog: m.name,
		Schema:  schema,
		Table:   table,
		Columns: allColumns(t),
	}, &TableHandle{Schema: schema, Table: table, Limit: -1}, nil
}

// ---------------------------------------------------------------------------

type hiveSplits Connector

func (sm *hiveSplits) Splits(handle connector.TableHandle) ([]connector.Split, error) {
	c := (*Connector)(sm)
	h, ok := handle.(*TableHandle)
	if !ok {
		return nil, fmt.Errorf("hive: foreign table handle %T", handle)
	}
	t, err := c.ms.GetTable(h.Schema, h.Table)
	if err != nil {
		return nil, err
	}
	type partDir struct {
		dir     string
		version int64
		sealed  bool
		values  map[string]string
	}
	var dirs []partDir
	if len(t.PartitionKeys) == 0 {
		dirs = append(dirs, partDir{dir: t.Location, version: t.Version(), sealed: true, values: map[string]string{}})
	} else {
		for _, p := range t.Partitions() {
			values, err := parsePartitionName(p.Name)
			if err != nil {
				return nil, err
			}
			if !partitionMatches(values, h.PartitionPreds) {
				continue // partition pruning from pushed predicates
			}
			dirs = append(dirs, partDir{dir: p.Location, version: p.Version, sealed: p.Sealed, values: values})
		}
	}
	var splits []connector.Split
	for _, d := range dirs {
		var files []fsys.FileInfo
		if c.opts.DisableFileListCache {
			files, err = c.fs.ListFiles(d.dir)
		} else {
			files, err = c.listCache.List(d.dir, d.version, d.sealed)
		}
		if err != nil {
			return nil, fmt.Errorf("hive: listing %s: %w", d.dir, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f.Path, "/.keep") {
				continue // directory marker, not data
			}
			splits = append(splits, &Split{Handle: h, Path: f.Path, Size: f.Size, Stamp: f.Stamp, PartitionValues: d.values})
		}
	}
	return splits, nil
}

// parsePartitionName parses "datestr=2017-03-02/region=us" style names.
func parsePartitionName(name string) (map[string]string, error) {
	out := map[string]string{}
	for _, part := range strings.Split(name, "/") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("hive: bad partition name %q", name)
		}
		out[kv[0]] = kv[1]
	}
	return out, nil
}

func partitionMatches(values map[string]string, preds []expr.Comparison) bool {
	for _, p := range preds {
		if v, ok := values[p.Column]; ok && !p.Match(v) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------

type hiveRecords Connector

func (r *hiveRecords) CreatePageSource(handle connector.TableHandle, split connector.Split, columns []int) (connector.PageSource, error) {
	c := (*Connector)(r)
	sp, ok := split.(*Split)
	if !ok {
		return nil, fmt.Errorf("hive: foreign split %T", split)
	}
	h := sp.Handle
	t, err := c.ms.GetTable(h.Schema, h.Table)
	if err != nil {
		return nil, err
	}
	all := allColumns(t)

	// Map requested post-projection indexes to table ordinals.
	ordinals := make([]int, len(columns))
	for i, col := range columns {
		if h.Projection != nil {
			ordinals[i] = h.Projection[col]
		} else {
			ordinals[i] = col
		}
	}
	var sa *splitAggregation
	if h.Aggs != nil {
		if sa, err = newSplitAggregation(h.Aggs, t, columns); err != nil {
			return nil, err
		}
	}

	// The file is not opened here, and nothing stats it: the split carries
	// the size and stamp its listing gave it. The reader's I/O plan opens the
	// file with the first chunk the chunk cache does not hold (or the footer,
	// on a footer-cache miss), so a split that is pruned or served from the
	// caches costs no open at all.
	file := &lazyFile{fs: c.fs, path: sp.Path, size: sp.Size}
	readFooter := func() (footerEntry, error) {
		meta, schema, err := parquet.ReadFooter(file)
		return footerEntry{meta: meta, schema: schema}, err
	}
	var entry footerEntry
	if c.opts.DisableFooterCache {
		entry, err = readFooter()
	} else {
		entry, err = c.footerCache.GetFooter(cache.FileID{Path: sp.Path, Stamp: sp.Stamp}, readFooter)
	}
	if err != nil {
		_ = file.Close() // already failing: the footer error is the one to report
		return nil, err
	}
	// Predicates on columns missing from the file never match rows with a
	// non-null requirement... except OpNeq, which still cannot match NULL.
	for _, p := range h.DataPreds {
		if entry.schema.Resolve(p.Column) == nil {
			_ = file.Close() // pruned split: nothing was read, nothing to report
			if sa != nil {
				return &aggregateSource{sa: sa}, nil
			}
			return &connector.SlicePageSource{}, nil
		}
	}
	if sa != nil {
		reader, err := parquet.NewReaderWithFooter(file, entry.meta, entry.schema, c.readerOptions(sa.bind(entry.schema), h.DataPreds, sp))
		if err != nil {
			_ = file.Close() // already failing: the reader error is the one to report
			return nil, err
		}
		reader.AnswerFromStats(sa.fromStats)
		if sa.err != nil {
			_ = reader.Close() // already failing: the fold error is the one to report
			return nil, sa.err
		}
		return &aggregateSource{sa: sa, next: reader.Next, close: reader.Close}, nil
	}

	// Partition-key columns come from the split; data columns from the
	// file. Schema evolution (§V.A): columns or struct fields added to the
	// table after this file was written are absent in the file schema —
	// they read as NULL; type layouts are adapted by evolveBlock.
	//
	// With nested paths pushed (§V.D), the scan's "columns" are dotted
	// struct paths instead of whole table columns.
	partKeys := map[string]bool{}
	for _, k := range t.PartitionKeys {
		partKeys[k] = true
	}
	outCols := all
	outName := func(ord int) string { return all[ord].Name }
	isPartKey := func(ord int) bool { return ord >= len(t.Columns) }
	if h.NestedPaths != nil {
		nested := make([]connector.Column, len(h.NestedPaths))
		for i, path := range h.NestedPaths {
			typ := typeAtPath(t, path)
			if typ == nil {
				return nil, fmt.Errorf("hive: nested path %q does not resolve in %s.%s", path, h.Schema, h.Table)
			}
			nested[i] = connector.Column{Name: path, Type: typ}
		}
		outCols = nested
		outName = func(ord int) string { return h.NestedPaths[ord] }
		isPartKey = func(ord int) bool { return partKeys[h.NestedPaths[ord]] }
	}
	var dataPaths []string
	dataSlot := map[int]int{}     // output slot -> index in dataPaths
	missingSlot := map[int]bool{} // output slot -> column absent in file
	for i, ord := range ordinals {
		if isPartKey(ord) {
			continue
		}
		if entry.schema.Resolve(outName(ord)) == nil {
			missingSlot[i] = true
			continue
		}
		dataSlot[i] = len(dataPaths)
		dataPaths = append(dataPaths, outName(ord))
	}
	src := &pageSource{
		conn:        c,
		split:       sp,
		ordinals:    ordinals,
		dataSlot:    dataSlot,
		missingSlot: missingSlot,
		allCols:     outCols,
		remaining:   h.Limit,
	}
	if c.opts.UseLegacyReader {
		legacy, err := parquet.NewLegacyReader(file, dataPaths)
		if err != nil {
			_ = file.Close() // already failing: the reader error is the one to report
			return nil, err
		}
		src.nextPage, src.closeReader = legacy.Next, legacy.Close
		src.fileTypes = legacy.OutputTypes()
		return src, nil
	}
	reader, err := parquet.NewReaderWithFooter(file, entry.meta, entry.schema, c.readerOptions(dataPaths, h.DataPreds, sp))
	if err != nil {
		_ = file.Close() // already failing: the reader error is the one to report
		return nil, err
	}
	src.nextPage, src.closeReader = reader.Next, reader.Close
	src.fileTypes = reader.OutputTypes()
	return src, nil
}

// readerOptions is how the connector reads columns of the split's file under
// preds: its toggles, its metrics and its chunk cache.
func (c *Connector) readerOptions(columns []string, preds []expr.Comparison, sp *Split) parquet.ReaderOptions {
	tog := c.opts.Reader
	opts := parquet.ReaderOptions{
		Columns:            columns,
		Predicate:          preds,
		ColumnPruning:      !tog.NoColumnPruning,
		PredicatePushdown:  !tog.NoPredicatePushdown,
		DictionaryPushdown: !tog.NoDictionaryPushdown,
		LazyReads:          !tog.NoLazyReads,
		Vectorized:         !tog.NoVectorized,
		Metrics:            &c.readerMetrics,
	}
	if !c.opts.DisableChunkCache {
		opts.Path, opts.Stamp = sp.Path, sp.Stamp
		opts.Chunks = c.chunkCache
	}
	return opts
}

// pageSource adapts a file reader into a connector.PageSource, appending
// partition-key columns and applying the per-split limit.
type pageSource struct {
	conn        *Connector
	split       *Split
	nextPage    func() (*block.Page, error)
	closeReader func() error // waits for reads in flight, releases the file
	ordinals    []int
	dataSlot    map[int]int
	missingSlot map[int]bool
	fileTypes   []*types.Type
	allCols     []connector.Column
	remaining   int64
	done        bool
}

func (s *pageSource) Next() (*block.Page, error) {
	if s.done || s.remaining == 0 {
		return nil, io.EOF
	}
	p, err := s.nextPage()
	if errors.Is(err, io.EOF) {
		s.done = true
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	if s.remaining > 0 && int64(p.Count()) > s.remaining {
		p = p.Region(0, int(s.remaining))
	}
	if s.remaining > 0 {
		s.remaining -= int64(p.Count())
	}
	blocks := make([]block.Block, len(s.ordinals))
	for i, ord := range s.ordinals {
		if slot, isData := s.dataSlot[i]; isData {
			b := p.Blocks[slot]
			tableType := s.allCols[ord].Type
			if !s.fileTypes[slot].Equals(tableType) {
				b = evolveBlock(b, s.fileTypes[slot], tableType)
			}
			blocks[i] = b
			continue
		}
		if s.missingSlot[i] {
			blocks[i] = nullBlock(s.allCols[ord].Type, p.Count())
			continue
		}
		key := s.allCols[ord].Name
		blocks[i] = block.NewRunLengthBlock(
			block.SingleValue(types.Varchar, s.split.PartitionValues[key]), p.Count())
	}
	return &block.Page{Blocks: blocks, N: p.Count()}, nil
}

func (s *pageSource) Close() error {
	s.done = true
	return s.closeReader()
}

// ErrFileChanged fails a split whose file, when first opened, is not the
// size its listing gave: the file was written again after it was listed, and
// a footer cached for the listed file must not be read against other bytes.
var ErrFileChanged = errors.New("hive: file changed since it was listed")

// lazyFile is a fsys.File of known size that is opened by its first read —
// one fs.Open however many reads race for it — and never when nothing reads.
// The open checks the file is still the size it was listed with.
type lazyFile struct {
	fs   fsys.FileSystem
	path string
	size int64

	once sync.Once
	f    fsys.File
	err  error
}

// ReadAt implements io.ReaderAt.
func (l *lazyFile) ReadAt(p []byte, off int64) (int, error) {
	l.once.Do(l.open)
	if l.err != nil {
		return 0, l.err
	}
	return l.f.ReadAt(p, off)
}

func (l *lazyFile) open() {
	if l.f, l.err = l.fs.Open(l.path); l.err == nil && l.f.Size() != l.size {
		l.err = fmt.Errorf("%w: %s was listed at %d bytes and opened at %d", ErrFileChanged, l.path, l.size, l.f.Size())
	}
}

// Size implements fsys.File.
func (l *lazyFile) Size() int64 { return l.size }

// Close implements io.Closer; the caller has no read in flight. A file that
// was never read is never opened.
func (l *lazyFile) Close() error {
	l.once.Do(func() {})
	f := l.f
	l.f, l.err = nil, fmt.Errorf("hive: %s is closed", l.path)
	if f == nil {
		return nil
	}
	return f.Close()
}
