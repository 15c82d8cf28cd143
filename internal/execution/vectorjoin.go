package execution

import (
	"errors"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// crossJoinBatch bounds the candidate pairs one cross-join probe step
// builds: every probe row pairs with every build row, so a probe page is
// joined a slice of rows at a time.
const crossJoinBatch = 1 << 14

// vectorJoinOperator is the hash join, over the vector kernels: the build
// side is compacted into flat typed column stores indexed by a chained
// open-addressing JoinTable, and probe pages are hashed and matched in
// batch — matches come out as (probe selection vector, build row gather),
// so output columns are built with two typed copies instead of per-row
// boxing. It runs every join shape the planner emits:
//
//   - a residual predicate is evaluated over each page of candidate pairs
//     and narrows them; a LEFT join counts a probe row as matched only when
//     one of its pairs passes;
//   - a cross join has no keys, so every build row chains under the one
//     table entry and each probe row meets all of them;
//   - a build column whose type has no vector kind (row, array, map, a bare
//     NULL) keeps its blocks, concatenated once the build is complete and
//     masked on output.
//
// Under memory pressure (with spill enabled) it becomes a multi-pass join:
// each refused reservation writes the build rows held before the refused
// page out as one run and starts a fresh table with that page (a page
// refused again is a run of its own), the probe side is buffered into runs
// too, and then each build run in turn is loaded into a fresh table and the
// whole probe stream replayed against it. LEFT joins carry match flags by
// global probe row across the passes and emit the null-extended rows in a
// last one. Output order differs from the streaming path (hash-join output
// order is unspecified). Only loading a run reserves hard, and it reserves
// the run whole before reading it, so a pass that waits for memory holds
// none.
type vectorJoinOperator struct {
	node  *planner.Join
	left  Operator
	right Operator
	mem   *opMem

	leftTypes  []*types.Type
	rightTypes []*types.Type
	rightKinds []vector.Kind
	keyKinds   []vector.Kind

	// The build rows in memory (a chunk), from the pages that brought them:
	// ends[i] is the row after the chunk's page i. cols[c] stores build
	// column c, or is nil when its type has no vector kind — then parts[c][i]
	// is the column's block of page i, until finishChunk concatenates them
	// into kept[c].
	ends      []int
	cols      []*vector.Column
	parts     [][]block.Block
	kept      []block.Block
	keptBytes int64
	jt        *vector.JoinTable
	rows      int
	charged   int64
	built     bool

	hasher    vector.Hasher
	hashes    []uint64
	rowViews  []*vector.View
	insViews  []*vector.View // rowViews of the build keys
	keyViews  []*vector.View
	probeSel  []int
	buildRows []int32
	buildPos  []int
	passSel   []int
	extraSel  []int
	matched   []bool

	pending []*block.Page

	// Multi-pass state: the spilled build chunks (next is the one to load)
	// and what each held in memory, the buffered probe side and the replay
	// of it in progress, whose next page starts at global probe row base;
	// hits holds a LEFT join's match flags by global probe row, and final
	// marks its null-extension pass.
	buildRuns []*resource.Run
	buildHeld []int64
	probeRuns []*resource.Run
	replay    *runReplay
	next      int
	base      int
	hits      []bool
	final     bool
}

func newVectorJoinOperator(node *planner.Join, left, right Operator, mem *opMem) *vectorJoinOperator {
	o := &vectorJoinOperator{node: node, left: left, right: right, mem: mem}
	for _, c := range node.Left.Outputs() {
		o.leftTypes = append(o.leftTypes, c.Type)
	}
	for _, c := range node.Right.Outputs() {
		k, _ := vector.KindOf(c.Type)
		o.rightTypes = append(o.rightTypes, c.Type)
		o.rightKinds = append(o.rightKinds, k)
	}
	for _, ch := range node.LeftKeys {
		k, _ := vector.KindOf(o.leftTypes[ch])
		o.keyKinds = append(o.keyKinds, k)
	}
	o.rowViews = newViews(len(o.rightTypes))
	o.keyViews = newViews(len(node.LeftKeys))
	for _, ch := range node.RightKeys {
		o.insViews = append(o.insViews, o.rowViews[ch])
	}
	o.resetChunk()
	return o
}

func newViews(n int) []*vector.View {
	vs := make([]*vector.View, n)
	for i := range vs {
		vs[i] = &vector.View{}
	}
	return vs
}

// resetChunk empties the build rows in memory: fresh stores, a fresh table.
func (o *vectorJoinOperator) resetChunk() {
	o.cols = make([]*vector.Column, len(o.rightTypes))
	o.parts = make([][]block.Block, len(o.rightTypes))
	o.kept = make([]block.Block, len(o.rightTypes))
	for c, t := range o.rightTypes {
		o.cols[c], _ = vector.NewColumn(t)
	}
	keyCols := make([]*vector.Column, len(o.node.RightKeys))
	for i, ch := range o.node.RightKeys {
		keyCols[i] = o.cols[ch]
	}
	o.jt = vector.NewJoinTable(keyCols)
	o.ends, o.rows, o.charged, o.keptBytes = nil, 0, 0, 0
}

// add appends build page p to the chunk and returns how many bytes the
// chunk grew by, for the caller to reserve.
func (o *vectorJoinOperator) add(p *block.Page) (int64, error) {
	n := p.Count()
	hashes := o.scratchHashes(n)
	o.hasher.HashPage(p, o.node.RightKeys, hashes)
	held := int64(0)
	for c, col := range o.cols {
		if col == nil {
			b := block.Unwrap(p.Blocks[c])
			o.parts[c] = append(o.parts[c], b)
			o.keptBytes += int64(b.SizeBytes())
			continue
		}
		if err := vector.ViewAs(p.Blocks[c], o.rightKinds[c], n, o.rowViews[c]); err != nil {
			return 0, err
		}
		col.Append(o.rowViews[c], n)
		held += col.Bytes()
	}
	for _, ch := range o.node.RightKeys {
		if o.cols[ch] == nil {
			// A key with no vector kind is a bare NULL (`=` takes no other
			// such type): viewed, every row inserts as a null key.
			if err := vector.ViewAs(p.Blocks[ch], o.rightKinds[ch], n, o.rowViews[ch]); err != nil {
				return 0, err
			}
		}
	}
	o.jt.Insert(o.insViews, n, hashes, o.rows)
	o.rows += n
	o.ends = append(o.ends, o.rows)
	held += o.keptBytes + o.jt.Bytes()
	grown := held - o.charged
	o.charged = held
	return grown, nil
}

// finishChunk concatenates the kept blocks of the build columns with no
// vector kind, so output can mask them by build row.
func (o *vectorJoinOperator) finishChunk() {
	for c, parts := range o.parts {
		if o.cols[c] == nil {
			o.kept[c] = block.Concat(parts)
			o.parts[c] = nil
		}
	}
}

func (o *vectorJoinOperator) scratchHashes(n int) []uint64 {
	if cap(o.hashes) < n {
		o.hashes = make([]uint64, n)
	}
	return o.hashes[:n]
}

// build consumes the build side into the chunk, reserving what it retains.
// A refused reservation spills the chunk as it was before the page that
// did not fit — a chunk the budget held, so a pass can load it back — and
// starts the next chunk with that page; refused again, the page is spilled
// as a chunk of its own. Once any chunk spilled, the last one is spilled
// too and the probe side buffered, for the multi-pass join.
func (o *vectorJoinOperator) build() error {
	for {
		p, err := o.right.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		fit := len(o.ends)
		grown, err := o.add(p)
		if err != nil {
			return err
		}
		ok, err := o.mem.reserve(grown)
		if err != nil {
			return err
		}
		if ok {
			continue
		}
		if err := o.spillChunk(fit, o.charged-grown); err != nil {
			return err
		}
		if grown, err = o.add(p); err != nil {
			return err
		}
		if ok, err = o.mem.reserve(grown); err != nil {
			return err
		}
		if !ok {
			if err := o.spillChunk(len(o.ends), o.charged); err != nil {
				return err
			}
		}
	}
	if o.buildRuns == nil {
		o.finishChunk()
		return nil
	}
	// Loading a build run back hard-reserves it whole, so nothing else may
	// stay charged: the last chunk goes to disk, then the probe side.
	if err := o.spillChunk(len(o.ends), o.charged); err != nil {
		return err
	}
	return o.bufferProbe()
}

// spillChunk writes the chunk's first pages out as one run — page by page
// as they came, so a pass that loads the run back holds what the chunk
// held, which the caller gives as held — then empties the chunk, freeing
// its reservation.
func (o *vectorJoinOperator) spillChunk(pages int, held int64) error {
	if pages > 0 {
		from := 0
		run, err := o.mem.writeRun("join-build", pages, func(i int) *block.Page {
			blocks := make([]block.Block, len(o.cols))
			for c, col := range o.cols {
				if col == nil {
					blocks[c] = o.parts[c][i]
				} else {
					blocks[c] = col.Block(from, o.ends[i])
				}
			}
			p := &block.Page{Blocks: blocks, N: o.ends[i] - from}
			from = o.ends[i]
			return p
		})
		if err != nil {
			return err
		}
		o.buildRuns, o.buildHeld = append(o.buildRuns, run), append(o.buildHeld, held)
	}
	o.resetChunk()
	o.mem.releaseAll()
	return nil
}

// bufferProbe consumes the probe side into runs for the passes to replay:
// buffered pages are spilled whenever a reservation is refused — a page
// refused again after that with them, as a run of its own — and at the end,
// since every pass loads a build run with the whole budget.
func (o *vectorJoinOperator) bufferProbe() error {
	var pages []*block.Page
	flush := func() error {
		if len(pages) == 0 {
			return nil
		}
		run, err := o.mem.writeRun("join-probe", len(pages), func(i int) *block.Page { return pages[i] })
		if err != nil {
			return err
		}
		o.probeRuns = append(o.probeRuns, run)
		pages = nil
		o.mem.releaseAll()
		return nil
	}
	for {
		p, err := o.left.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		sz := int64(p.SizeBytes())
		ok, err := o.mem.reserve(sz)
		if err != nil {
			return err
		}
		if !ok {
			if err := flush(); err != nil {
				return err
			}
			if ok, err = o.mem.reserve(sz); err != nil {
				return err
			}
		}
		pages = append(pages, p)
		if !ok {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// loadRun reads spilled build run i back into the empty chunk and removes
// it. It reserves without a spill fallback — the multi-pass join has
// nothing left to spill — and before the first page is read: what the
// chunk held when it spilled, with any difference the reload shows charged
// after it.
func (o *vectorJoinOperator) loadRun(i int) error {
	if err := o.mem.hardReserve(o.buildHeld[i]); err != nil {
		return err
	}
	rr, err := o.buildRuns[i].Open()
	if err != nil {
		return err
	}
	for {
		p, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil {
			_, err = o.add(p)
		}
		if err != nil {
			return errors.Join(err, rr.Close())
		}
	}
	if err := rr.Close(); err != nil {
		return err
	}
	o.buildRuns[i].Remove()
	o.finishChunk()
	return o.mem.hardReserve(o.charged - o.buildHeld[i])
}

func (o *vectorJoinOperator) Next() (*block.Page, error) {
	if !o.built {
		if err := o.build(); err != nil {
			return nil, err
		}
		o.built = true
		if o.buildRuns == nil {
			o.mem.pool.Leave() // a multi-pass join stays: each pass gives its run back
		}
	}
	for len(o.pending) == 0 {
		var err error
		if o.buildRuns != nil {
			err = o.replayNext()
		} else {
			err = o.streamNext()
		}
		if err != nil {
			return nil, err
		}
	}
	p := o.pending[0]
	o.pending[0] = nil
	o.pending = o.pending[1:]
	return p, nil
}

// streamNext joins the next probe page against the in-memory build side; a
// LEFT join null-extends the page's unmatched rows right away.
func (o *vectorJoinOperator) streamNext() error {
	p, err := o.left.Next()
	if err != nil {
		return err
	}
	if o.node.Kind != planner.JoinLeft {
		return o.probe(p, nil)
	}
	n := p.Count()
	if cap(o.matched) < n {
		o.matched = make([]bool, n)
	}
	hits := o.matched[:n]
	clear(hits)
	if err := o.probe(p, hits); err != nil {
		return err
	}
	o.nullExtend(p, hits)
	return nil
}

// replayNext advances the multi-pass join by one buffered probe page: it
// joins the page against the loaded build run or, in a LEFT join's last
// pass, null-extends the page's rows no pass matched. When a replay ends
// the next one starts over the next build run.
func (o *vectorJoinOperator) replayNext() error {
	if o.replay == nil {
		switch {
		case o.next < len(o.buildRuns):
			if err := o.loadRun(o.next); err != nil {
				return err
			}
			o.next++
		case o.node.Kind == planner.JoinLeft && !o.final:
			o.final = true
		default:
			return io.EOF
		}
		o.replay = &runReplay{runs: o.probeRuns}
		o.base = 0
	}
	p, err := o.replay.next()
	if errors.Is(err, io.EOF) {
		o.replay = nil
		o.resetChunk()
		o.mem.releaseAll()
		return nil
	}
	if err != nil {
		return err
	}
	var hits []bool
	if o.node.Kind == planner.JoinLeft {
		if end := o.base + p.Count(); end > len(o.hits) {
			o.hits = append(o.hits, make([]bool, end-len(o.hits))...)
		}
		hits = o.hits[o.base : o.base+p.Count()]
	}
	o.base += p.Count()
	if o.final {
		o.nullExtend(p, hits)
		return nil
	}
	return o.probe(p, hits)
}

// probe joins probe page p against the chunk, queueing the joined rows; for
// a LEFT join it sets hits[r] for every row r of p that one of them came
// from. A cross join goes crossJoinBatch pairs at a time.
func (o *vectorJoinOperator) probe(p *block.Page, hits []bool) error {
	n := p.Count()
	step := n
	if len(o.node.LeftKeys) == 0 && o.rows > 0 {
		step = max(1, crossJoinBatch/o.rows)
	}
	for from := 0; from < n; from += step {
		m := min(step, n-from)
		slice, sliceHits := p, hits
		if m < n {
			slice = p.Region(from, m)
			if hits != nil {
				sliceHits = hits[from : from+m]
			}
		}
		if err := o.probeSlice(slice, sliceHits); err != nil {
			return err
		}
	}
	return nil
}

func (o *vectorJoinOperator) probeSlice(p *block.Page, hits []bool) error {
	n := p.Count()
	hashes := o.scratchHashes(n)
	o.hasher.HashPage(p, o.node.LeftKeys, hashes)
	for i, ch := range o.node.LeftKeys {
		if err := vector.ViewAs(p.Blocks[ch], o.keyKinds[i], n, o.keyViews[i]); err != nil {
			return err
		}
	}
	probeSel, buildRows := o.jt.Probe(o.keyViews, n, hashes, o.probeSel[:0], o.buildRows[:0])
	o.probeSel, o.buildRows = probeSel, buildRows // keep the capacity for the next page
	if len(probeSel) == 0 {
		return nil
	}
	out := o.joined(p, probeSel, buildRows)
	if o.node.Residual != nil {
		pass, err := expr.EvalFilterInto(o.node.Residual, out, o.passSel)
		if err != nil {
			return err
		}
		o.passSel = pass
		if len(pass) == 0 {
			return nil
		}
		if len(pass) < out.N {
			out = out.Mask(pass)
			for i, s := range pass {
				probeSel[i] = probeSel[s]
			}
			probeSel = probeSel[:len(pass)]
		}
	}
	if hits != nil {
		for _, r := range probeSel {
			hits[r] = true
		}
	}
	o.pending = append(o.pending, out)
	return nil
}

// joined builds the page of pairs (probe row probeSel[i], build row
// buildRows[i]).
func (o *vectorJoinOperator) joined(p *block.Page, probeSel []int, buildRows []int32) *block.Page {
	nl := len(o.leftTypes)
	blocks := make([]block.Block, nl+len(o.cols))
	for c := 0; c < nl; c++ {
		blocks[c] = p.Blocks[c].Mask(probeSel)
	}
	var pos []int
	for c, col := range o.cols {
		if col != nil {
			blocks[nl+c] = col.Gather(buildRows)
			continue
		}
		if pos == nil {
			pos = o.buildPos[:0]
			for _, r := range buildRows {
				pos = append(pos, int(r))
			}
			o.buildPos = pos
		}
		blocks[nl+c] = o.kept[c].Mask(pos)
	}
	return &block.Page{Blocks: blocks, N: len(probeSel)}
}

// nullExtend queues the rows of p whose hits flag is unset, each with a
// NULL in every build column.
func (o *vectorJoinOperator) nullExtend(p *block.Page, hits []bool) {
	sel := o.extraSel[:0]
	for r, hit := range hits {
		if !hit {
			sel = append(sel, r)
		}
	}
	o.extraSel = sel
	if len(sel) == 0 {
		return
	}
	nl := len(o.leftTypes)
	blocks := make([]block.Block, nl+len(o.rightTypes))
	for c := 0; c < nl; c++ {
		blocks[c] = p.Blocks[c].Mask(sel)
	}
	for c, t := range o.rightTypes {
		blocks[nl+c] = block.NewRunLengthBlock(block.SingleValue(t, nil), len(sel))
	}
	o.pending = append(o.pending, &block.Page{Blocks: blocks, N: len(sel)})
}

func (o *vectorJoinOperator) Close() error {
	var errs []error
	if o.replay != nil {
		errs = append(errs, o.replay.close())
		o.replay = nil
	}
	for _, r := range o.buildRuns {
		r.Remove()
	}
	for _, r := range o.probeRuns {
		r.Remove()
	}
	o.mem.releaseAll()
	errs = append(errs, o.left.Close(), o.right.Close())
	return errors.Join(errs...)
}

// runReplay reads spill runs back in order, one page at a time, and leaves
// them in place for the next replay. The page read back is transient engine
// overhead (one bounded frame), not user memory: charging it against the
// cap that forced the spill would deadlock the replay.
type runReplay struct {
	runs []*resource.Run
	idx  int
	rr   *resource.RunReader
}

func (it *runReplay) next() (*block.Page, error) {
	for it.idx < len(it.runs) {
		if it.rr == nil {
			rr, err := it.runs[it.idx].Open()
			if err != nil {
				return nil, err
			}
			it.rr = rr
		}
		p, err := it.rr.Next()
		if errors.Is(err, io.EOF) {
			if err := it.close(); err != nil {
				return nil, err
			}
			it.idx++
			continue
		}
		return p, err
	}
	return nil, io.EOF
}

func (it *runReplay) close() error {
	if it.rr == nil {
		return nil
	}
	err := it.rr.Close()
	it.rr = nil
	return err
}
