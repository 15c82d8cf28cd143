package parquet

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// ---------------------------------------------------------------------------
// New reader (§V.D–§V.I).

// ReaderOptions toggles each optimization independently (ablation studies
// turn them off one at a time; all-on is the production configuration).
type ReaderOptions struct {
	// Columns lists the output paths (top-level column names or nested
	// struct paths). nil means all top-level columns; an empty list means
	// none, so that each page only counts its rows.
	Columns []string
	// Predicate is a conjunction evaluated inside the reader. Each Column is
	// the dotted path of a (possibly nested, non-repeated) primitive leaf,
	// e.g. base.city_id = 12.
	Predicate []expr.Comparison

	// ColumnPruning reads only required leaves from disk (§V.D). When off,
	// every leaf is read and decoded (like the old reader).
	ColumnPruning bool
	// PredicatePushdown reads the footer's min/max and NULL counts (§V.F):
	// a row group no row of which can pass the predicate is skipped, and a
	// predicate every row of a row group passes is not evaluated there.
	PredicatePushdown bool
	// DictionaryPushdown probes dictionary pages to skip row groups (§V.G).
	DictionaryPushdown bool
	// LazyReads defers materializing non-predicate columns (§V.H).
	LazyReads bool
	// Vectorized selects the batched triplet decoder (§V.I).
	Vectorized bool

	// Path and Stamp identify the file in Chunks: its warehouse path and the
	// stamp a listing gave it (fsys.FileInfo), so a file written again is
	// never answered with the old one's chunks. Required when Chunks is set.
	Path  string
	Stamp int64
	// Chunks, when non-nil, caches decoded column chunks across reader
	// instances (the worker-local data cache, §VII): a hit is neither read,
	// decompressed nor decoded. nil reads and decodes every chunk.
	Chunks ChunkCache

	// Metrics, when non-nil, is where the reader counts its work instead of
	// a Metrics of its own: a connector passes the same one to every reader.
	Metrics *Metrics
}

// AllOptimizations enables every new-reader feature.
func AllOptimizations(columns []string, preds []expr.Comparison) ReaderOptions {
	return ReaderOptions{
		Columns:            columns,
		Predicate:          preds,
		ColumnPruning:      true,
		PredicatePushdown:  true,
		DictionaryPushdown: true,
		LazyReads:          true,
		Vectorized:         true,
	}
}

// Metrics counts reader work. The fields are atomic because a lazily read
// column is decoded by whichever goroutine first touches its block, possibly
// after the reader has moved on to the next row group or been closed, and
// because a connector sums all its readers into one Metrics
// (ReaderOptions.Metrics).
type Metrics struct {
	RowGroupsTotal        atomic.Int64
	RowGroupsSkippedStats atomic.Int64
	RowGroupsSkippedDict  atomic.Int64
	RowGroupsRead         atomic.Int64
	// LeavesDecoded counts the leaf chunks pages were built from, decoded
	// or taken decoded from the chunk cache.
	LeavesDecoded atomic.Int64
	RowsMatched   atomic.Int64
	RowsScanned   atomic.Int64
	// What the I/O plan asked of storage: batches of ranges read together
	// (one round trip each), the ranges (one ReadAt each) and their bytes.
	// All three stay 0 while the chunk cache holds everything a scan needs.
	FetchBatches atomic.Int64
	RangesRead   atomic.Int64
	BytesRead    atomic.Int64

	// RowGroupsAnsweredStats counts row groups the caller answered from
	// their statistics (Reader.AnswerFromStats) instead of reading them.
	RowGroupsAnsweredStats atomic.Int64
	// PredicatesCovered counts (row group, predicate) pairs whose statistics
	// prove that every row passes, so the predicate was not evaluated.
	PredicatesCovered atomic.Int64
}

// readAheadBytes caps the file bytes of chunks a reader has requested for
// row groups Next has not reached yet. The row group in hand is always
// fetched, whatever its size.
const readAheadBytes = 8 << 20

// batch is the chunks of one row group that are looked up in the cache and
// fetched together.
type batch struct {
	chunks []chunkBytes // in leaf order, which is file order
	size   int64        // bytes in the file, were every chunk a cache miss
	ranges []*byteRange // in flight or landed: what the cache did not hold
}

func (b *batch) chunk(leafIndex int) *chunkBytes {
	for i := range b.chunks {
		if b.chunks[i].cm.LeafIndex == leafIndex {
			return &b.chunks[i]
		}
	}
	return nil
}

// rowGroupPlan is a row group's part of the file's I/O plan, computed from
// the footer when the reader opens.
type rowGroupPlan struct {
	// pruned: footer statistics prove that no row matches (§V.F, Fig 7: "one
	// row group city_id max is 10, skip this row group"). Nothing is read.
	pruned bool
	// answered: the caller answered the row group from its statistics
	// (AnswerFromStats). Nothing is read.
	answered bool
	// preds are the predicates the row group evaluates: the ones its
	// statistics do not cover. A covered predicate holds for every row, so
	// its leaf is read only if an output needs it.
	preds []*leafPredicate
	// pred holds the leaves of preds, proj the other leaves the outputs
	// need. pred is read ahead; proj is requested once the selection is known
	// to be non-empty, so a row group the predicate empties costs no
	// projected byte. Without a predicate to evaluate proj is the whole row
	// group and is read ahead itself.
	pred, proj batch
}

// Reader is the brand-new columnar reader. It yields one page per surviving
// row group.
type Reader struct {
	fetcher
	meta    *FileMeta
	schema  *Schema
	opts    ReaderOptions
	outputs []*Node // one per output column
	// preds is opts.Predicate bound to the file's schema, once per file.
	preds []leafPredicate

	plan    []rowGroupPlan
	rgIndex int   // the next row group Next turns into a page
	issued  int   // row groups below it have had their first batch requested
	ahead   int64 // file bytes of first batches requested beyond rgIndex

	// Metrics is opts.Metrics, or the reader's own when that is nil.
	Metrics *Metrics
}

// NewReader opens a file with the given options.
func NewReader(f fsys.File, opts ReaderOptions) (*Reader, error) {
	meta, schema, err := ReadFooter(f)
	if err != nil {
		return nil, err
	}
	return NewReaderWithFooter(f, meta, schema, opts)
}

// NewReaderWithFooter opens a file whose footer was already parsed (workers
// serve it from the footer cache, §VII.B, skipping the footer read); meta and
// schema are what ReadFooter returned for this file. The reader owns f from
// here on: it is first read when a chunk is needed that the chunk cache does
// not hold, and closed by Close.
func NewReaderWithFooter(f fsys.File, meta *FileMeta, schema *Schema, opts ReaderOptions) (*Reader, error) {
	r := &Reader{meta: meta, schema: schema, opts: opts, Metrics: opts.Metrics}
	if r.Metrics == nil {
		r.Metrics = &Metrics{}
	}
	r.fetcher.f, r.fetcher.m = f, r.Metrics
	cols := opts.Columns
	if cols == nil {
		cols = schema.Names
	}
	for _, path := range cols {
		n := schema.Resolve(path)
		if n == nil {
			return nil, fmt.Errorf("parquet: no column %q in schema", path)
		}
		r.outputs = append(r.outputs, n)
	}
	for _, p := range opts.Predicate {
		lp, err := bindPredicate(p, schema)
		if err != nil {
			return nil, err
		}
		r.preds = append(r.preds, lp)
	}
	r.planReads()
	r.Metrics.RowGroupsTotal.Add(int64(len(meta.RowGroups)))
	return r, nil
}

// planReads computes the file's I/O plan: per row group that statistics do
// not exclude, the chunks of the leaves of the predicates it evaluates and
// of the other leaves the outputs need (every leaf when column pruning is
// off).
func (r *Reader) planReads() {
	needed := make([]bool, len(r.schema.Leaves))
	for _, out := range r.outputs {
		for _, li := range out.leaves {
			needed[li] = true
		}
	}
	all := make([]*leafPredicate, len(r.preds))
	for i := range r.preds {
		all[i] = &r.preds[i]
	}
	r.plan = make([]rowGroupPlan, len(r.meta.RowGroups))
	for i := range r.plan {
		rp, rg := &r.plan[i], &r.meta.RowGroups[i]
		rp.preds = all
		if r.opts.PredicatePushdown {
			rp.preds, rp.pruned = r.classify(rg)
			if rp.pruned {
				continue
			}
			r.Metrics.PredicatesCovered.Add(int64(len(r.preds) - len(rp.preds)))
		}
		// rg.Chunks is in leaf order, so the batches come out in file order.
		for j := range rg.Chunks {
			cm := &rg.Chunks[j]
			b := &rp.proj
			if evaluates(rp.preds, cm.LeafIndex) {
				b = &rp.pred
			} else if r.opts.ColumnPruning && !needed[cm.LeafIndex] {
				continue
			}
			cb := newChunkBytes(cm, r.schema.Leaves[cm.LeafIndex])
			b.chunks = append(b.chunks, cb)
			b.size += cb.size()
		}
	}
}

// classify sorts the predicates by what the footer statistics of rg prove
// (§V.F). A predicate is excluded when no row can pass it: its chunk holds
// only NULLs, which match nothing, or no value between min and max matches.
// Then the row group is pruned. It is covered when every row passes it: no
// NULL, and every value between min and max matches. Double statistics do
// not count NaNs, so a double predicate is never covered. Every other
// predicate is evaluated and returned.
func (r *Reader) classify(rg *RowGroupMeta) (evaluate []*leafPredicate, pruned bool) {
	for i := range r.preds {
		p := &r.preds[i]
		cm := rg.Chunk(p.node.LeafIndex)
		if cm == nil {
			evaluate = append(evaluate, p)
			continue
		}
		st, prim := &cm.Stats, p.node.Prim
		min, max := st.Min(prim), st.Max(prim)
		switch {
		case st.NullCount == rg.NumRows || !p.OverlapsStats(min, max):
			return nil, true
		case prim.Kind != types.KindDouble && st.NullCount == 0 && p.CoversStats(min, max):
		default:
			evaluate = append(evaluate, p)
		}
	}
	return evaluate, false
}

// evaluates reports whether one of preds reads leaf li.
func evaluates(preds []*leafPredicate, li int) bool {
	for _, p := range preds {
		if p.node.LeafIndex == li {
			return true
		}
	}
	return false
}

// AnswerFromStats offers answer every row group whose footer statistics
// settle the predicate: none of its rows fails it, so whatever the caller
// computes from the statistics is exact. A true answer marks the row group
// answered: the reader fetches nothing of it and Next skips it. Call it
// before the first Next.
func (r *Reader) AnswerFromStats(answer func(rg *RowGroupMeta) bool) {
	for i := range r.plan {
		rp := &r.plan[i]
		if !rp.pruned && len(rp.preds) == 0 && answer(&r.meta.RowGroups[i]) {
			rp.answered = true
			r.Metrics.RowGroupsAnsweredStats.Add(1)
		}
	}
}

// OutputTypes returns the SQL type of each output column.
func (r *Reader) OutputTypes() []*types.Type {
	out := make([]*types.Type, len(r.outputs))
	for i, n := range r.outputs {
		out[i] = TypeAt(n)
	}
	return out
}

// Next returns the next page, or io.EOF.
func (r *Reader) Next() (*block.Page, error) {
	for r.rgIndex < len(r.plan) {
		r.rgIndex++
		page, err := r.readRowGroup(r.rgIndex - 1)
		if err != nil {
			return nil, err
		}
		if page == nil || page.Count() == 0 {
			continue
		}
		return page, nil
	}
	return nil, io.EOF
}

// Close waits for the reads still in flight and releases the file. Pages
// already handed out stay readable: a lazy column's bytes were fetched before
// its page left Next.
func (r *Reader) Close() error { return r.fetcher.close() }

// chunkFetch keys the chunks of a row group in the reader's chunk cache.
func (r *Reader) chunkFetch(rgIndex int) chunkFetch {
	return chunkFetch{cache: r.opts.Chunks, path: r.opts.Path, stamp: r.opts.Stamp, rowGroup: rgIndex}
}

// first is the batch a row group is read ahead by.
func (r *Reader) first(rp *rowGroupPlan) *batch {
	if len(rp.preds) > 0 {
		return &rp.pred
	}
	return &rp.proj
}

// locate looks every chunk of b up in the chunk cache — the one lookup a
// chunk gets — and returns the reads for what it did not hold decoded: a
// chunk's dictionary page and data pages are adjacent in the file and become
// one range, and so do neighbouring leaves (fare|surge|tip).
func (r *Reader) locate(rgIndex int, b *batch) []*byteRange {
	cf := r.chunkFetch(rgIndex)
	for i := range b.chunks {
		cf.lookup(&b.chunks[i])
		b.chunks[i].runs(func(p *pages) {
			if n := len(b.ranges); n == 0 || !b.ranges[n-1].extend(p) {
				b.ranges = append(b.ranges, newByteRange(p))
			}
		})
	}
	return b.ranges
}

// readAhead requests the first batch of row group cur and of the row groups
// after it, as far as readAheadBytes allows, as one concurrent fetch: while
// cur is decoded and its page consumed, the reads of the following row
// groups are in flight.
func (r *Reader) readAhead(cur int) {
	var ranges []*byteRange
	for ; r.issued < len(r.plan); r.issued++ {
		rp := &r.plan[r.issued]
		if rp.pruned || rp.answered {
			continue
		}
		b := r.first(rp)
		if r.issued > cur && r.ahead+b.size > readAheadBytes {
			break
		}
		r.ahead += b.size
		ranges = append(ranges, r.locate(r.issued, b)...)
	}
	r.fetch(ranges)
}

func (r *Reader) readRowGroup(rgIndex int) (*block.Page, error) {
	rp, rg := &r.plan[rgIndex], &r.meta.RowGroups[rgIndex]
	if rp.pruned {
		r.Metrics.RowGroupsSkippedStats.Add(1)
		return nil, nil
	}
	if rp.answered {
		return nil, nil
	}
	r.readAhead(rgIndex)
	first := r.first(rp)
	r.ahead -= first.size
	if err := waitRanges(first.ranges); err != nil {
		return nil, err
	}
	// The row group's bytes leave the plan here: what outlives this call
	// (a lazy column) holds its own row group's chunks, not the file's.
	preds, pred, proj := rp.preds, rp.pred, rp.proj
	rp.pred, rp.proj = batch{}, batch{}
	cf := r.chunkFetch(rgIndex)
	codec := r.meta.Codec

	// 1. Dictionary pushdown: even if stats match, the dictionary may prove
	//    no value matches (Fig 8).
	if r.opts.DictionaryPushdown {
		for _, p := range preds {
			if p.Op != expr.OpEq && p.Op != expr.OpIn {
				continue
			}
			cb := pred.chunk(p.node.LeafIndex)
			if cb == nil || !cb.cm.Dictionary {
				continue
			}
			dict, err := cb.readDictionary(codec, cf)
			if err != nil {
				return nil, err
			}
			if !slices.Contains(p.entryMatches(dict), true) {
				r.Metrics.RowGroupsSkippedDict.Add(1)
				return nil, nil
			}
		}
	}
	r.Metrics.RowGroupsRead.Add(1)
	r.Metrics.RowsScanned.Add(rg.NumRows)
	numRecords := int(rg.NumRows)

	chunks := map[int]*chunkData{}
	decode := func(li int) error {
		if _, ok := chunks[li]; ok {
			return nil
		}
		cb := pred.chunk(li)
		if cb == nil {
			cb = proj.chunk(li)
		}
		if cb == nil {
			// Schema evolution: this leaf is absent in the file; synthesize
			// an all-null chunk (§V.A: new fields read as NULL in old data).
			chunks[li] = nullChunk(r.schema.Leaves[li], numRecords)
			return nil
		}
		cd, err := decodeChunk(cb, codec, r.opts.Vectorized, cf)
		if err != nil {
			return err
		}
		chunks[li] = cd
		r.Metrics.LeavesDecoded.Add(1)
		return nil
	}

	// 2. Decode predicate leaves first and evaluate the predicate on the
	//    fly (Figs 7-9: read, evaluate, and build in one step): each
	//    predicate narrows the selection with a typed loop over its chunk.
	//    nil selects every record: a predicate every record passes builds no
	//    selection, and no block is masked.
	var selection []int
	for _, p := range preds {
		if err := decode(p.node.LeafIndex); err != nil {
			return nil, err
		}
		selection = p.filter(chunks[p.node.LeafIndex], selection, numRecords)
		if len(selection) == 0 {
			return nil, nil
		}
		if len(selection) == numRecords {
			selection = nil
		}
	}
	rows := numRecords
	if selection != nil {
		rows = len(selection)
	}
	r.Metrics.RowsMatched.Add(int64(rows))

	// 3. Rows survive: fetch the projected leaves, all of them at once, and
	//    wait — the page must not leave with bytes still in the file, or a
	//    lazy column would need the handle after Close.
	if len(preds) > 0 {
		r.fetch(r.locate(rgIndex, &proj))
	}
	if err := waitRanges(proj.ranges); err != nil {
		return nil, err
	}

	// 4. Build columnar blocks directly (Fig 6). With lazy reads, projected
	//    non-predicate columns defer decompression and decoding until the
	//    engine actually touches the block (§V.H).
	out := make([]block.Block, len(r.outputs))
	for i, node := range r.outputs {
		node := node
		// An output that shares a leaf with an evaluated predicate is
		// decoded anyway: deferring it would save nothing.
		eager := false
		for _, li := range node.leaves {
			eager = eager || pred.chunk(li) != nil
		}
		buildNow := func() (block.Block, error) {
			sub := make(map[int]*chunkData, len(node.leaves))
			for _, li := range node.leaves {
				if err := decode(li); err != nil {
					return nil, err
				}
				sub[li] = chunks[li]
			}
			return assembleBlock(node, sub, numRecords, selection)
		}
		if !r.opts.LazyReads || eager {
			b, err := buildNow()
			if err != nil {
				return nil, err
			}
			out[i] = b
			continue
		}
		out[i] = block.NewLazyBlock(rows, func() block.Block {
			b, err := buildNow()
			if err != nil {
				// Block's accessors cannot return an error: the failure
				// unwinds to the driver running this pipeline, which fails
				// the task with it.
				panic(&block.LoadError{Err: fmt.Errorf("parquet: lazy column %s: %w", node.Path, err)})
			}
			return b
		})
	}
	if !r.opts.ColumnPruning {
		// Nested column pruning off: read and decode every leaf (Fig 4),
		// even those no output needs.
		for li := range r.schema.Leaves {
			if err := decode(li); err != nil {
				return nil, err
			}
		}
	}
	return &block.Page{Blocks: out, N: rows}, nil
}

// nullChunk synthesizes an all-null chunk for schema-evolution reads.
func nullChunk(leaf *Leaf, numRecords int) *chunkData {
	defs := make([]uint8, numRecords)
	var reps []uint8
	if leaf.MaxRep > 0 {
		reps = make([]uint8, numRecords)
	}
	return &chunkData{leaf: leaf, reps: reps, defs: defs, entries: numRecords}
}

// ---------------------------------------------------------------------------
// Legacy reader (§V.C, Fig 4): (1) reads ALL fields row by row; (2)
// transforms row-based records into columnar blocks for all nested columns;
// (3) leaves predicate evaluation to the engine.

// LegacyReader mimics the original open source reader's behavior on the
// same file format.
type LegacyReader struct {
	fetcher
	meta    *FileMeta
	schema  *Schema
	columns []string
	outputs []*Node
	rgIndex int
}

// NewLegacyReader opens a file. columns selects output paths, but — true to
// the original reader — every field is still read from disk and assembled
// into records first.
func NewLegacyReader(f fsys.File, columns []string) (*LegacyReader, error) {
	meta, schema, err := ReadFooter(f)
	if err != nil {
		return nil, err
	}
	r := &LegacyReader{fetcher: fetcher{f: f, m: &Metrics{}}, meta: meta, schema: schema, columns: columns}
	if len(columns) == 0 {
		r.columns = schema.Names
	}
	for _, path := range r.columns {
		n := schema.Resolve(path)
		if n == nil {
			return nil, fmt.Errorf("parquet: no column %q in schema", path)
		}
		r.outputs = append(r.outputs, n)
	}
	return r, nil
}

// OutputTypes returns the SQL type of each output column.
func (r *LegacyReader) OutputTypes() []*types.Type {
	out := make([]*types.Type, len(r.outputs))
	for i, n := range r.outputs {
		out[i] = TypeAt(n)
	}
	return out
}

// Next returns the next page (one per row group), or io.EOF.
func (r *LegacyReader) Next() (*block.Page, error) {
	if r.rgIndex >= len(r.meta.RowGroups) {
		return nil, io.EOF
	}
	rg := &r.meta.RowGroups[r.rgIndex]
	r.rgIndex++

	// Step 1: read all fields from disk (no pruning, no skipping).
	chunks := map[int]*chunkData{}
	for li, leaf := range r.schema.Leaves {
		var cd *chunkData
		found := false
		for i := range rg.Chunks {
			if rg.Chunks[i].LeafIndex == li {
				// The legacy reader stays the sequential, uncached baseline:
				// one read per page run, each waited for before the next.
				cb := newChunkBytes(&rg.Chunks[i], leaf)
				var err error
				cb.runs(func(p *pages) {
					if err == nil {
						one := []*byteRange{newByteRange(p)}
						r.fetch(one)
						err = waitRanges(one)
					}
				})
				if err != nil {
					return nil, err
				}
				cd, err = decodeChunk(&cb, r.meta.Codec, false, chunkFetch{})
				if err != nil {
					return nil, err
				}
				found = true
				break
			}
		}
		if !found {
			cd = nullChunk(leaf, int(rg.NumRows))
		}
		chunks[li] = cd
	}

	// Step 1 continued: assemble full row-based records across all columns.
	assemblers := make([]*assembler, len(r.schema.Roots))
	for i, root := range r.schema.Roots {
		sub := map[int]*chunkData{}
		for _, li := range LeavesUnder(root) {
			sub[li] = chunks[li]
		}
		assemblers[i] = newAssembler(root, sub)
	}
	records := make([][]any, 0, rg.NumRows)
	for rec := int64(0); rec < rg.NumRows; rec++ {
		record := make([]any, len(r.schema.Roots))
		for i, a := range assemblers {
			if !a.hasNext() {
				return nil, fmt.Errorf("parquet: column %s exhausted at record %d", r.schema.Names[i], rec)
			}
			v, err := a.nextValue()
			if err != nil {
				return nil, err
			}
			record[i] = v
		}
		records = append(records, record)
	}

	// Step 2: transform row-based records into columnar blocks.
	builders := make([]block.Builder, len(r.outputs))
	for i, node := range r.outputs {
		builders[i] = block.NewBuilder(TypeAt(node), len(records))
	}
	for _, record := range records {
		for i, node := range r.outputs {
			builders[i].Append(extractPath(record, r.schema, node))
		}
	}
	blocks := make([]block.Block, len(builders))
	for i, b := range builders {
		blocks[i] = b.Build()
	}
	return block.NewPage(blocks...), nil
}

// Close releases the file.
func (r *LegacyReader) Close() error { return r.fetcher.close() }

// extractPath digs a nested output path out of an assembled record.
func extractPath(record []any, schema *Schema, node *Node) any {
	parts := strings.Split(node.Path, ".")
	idx := schema.ColumnIndex(parts[0])
	v := record[idx]
	cur := schema.Roots[idx]
	for _, p := range parts[1:] {
		if v == nil {
			return nil
		}
		fields := v.([]any)
		found := -1
		for i, c := range cur.Children {
			if strings.EqualFold(c.Name, p) {
				found = i
				break
			}
		}
		v = fields[found]
		cur = cur.Children[found]
	}
	return v
}
