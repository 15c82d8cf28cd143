package execution

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
)

// exchangeMode selects how a local exchange routes pages from its source
// streams to its output streams. Local exchanges are the only place the
// execution layer starts goroutines: every source runs in its own producer,
// so the exchange is both a router and the boundary where a task's drivers
// actually become concurrent (the paper's §III driver model).
type exchangeMode int

const (
	// exGather funnels every source stream into one output (n→1), bridging a
	// parallel pipeline segment back to a serial consumer.
	exGather exchangeMode = iota
	// exRoundRobin fans pages out across outputs (k→n) with no key affinity,
	// rebalancing work when upstream produced fewer streams than drivers
	// (e.g. a table with a single split).
	exRoundRobin
	// exPassthrough connects source i to output i (n→n, order-preserving per
	// stream). It adds no routing — its value is purely that it drives all
	// sources concurrently, e.g. running per-driver sorts in parallel under a
	// streaming merge.
	exPassthrough
	// exPartition routes each row to the output chosen by hashing its key
	// columns (k→n), so all rows of one group/join key land on one driver.
	exPartition
	// exBroadcast copies every page to every output (k→n). Never chosen
	// statically — it is the adaptive exchange's small-build-side decision
	// for joins, where shipping the whole build table to each driver is
	// cheaper than repartitioning the (much larger) probe side.
	exBroadcast
	// exAdaptive starts undecided: pages are buffered until the observed
	// row count crosses the limit (decide exPartition) or every producer
	// finishes under it (decide the configured small mode — exGather for
	// aggregations, exBroadcast for join build sides). Repartitioning only
	// pays for itself when there is enough data to spread; below the limit
	// the partition step is pure overhead, the measured cause of the 1→2
	// driver regression on small group-by workloads.
	exAdaptive
	// exAdaptiveFollow is the probe side of an adaptively-exchanged join:
	// it waits for the build side's decision, then partitions (build was
	// partitioned) or round-robins (build was broadcast, any driver can
	// join any probe row).
	exAdaptiveFollow
)

// exchangeBuffer is the per-output channel capacity. Pages in flight inside
// an exchange are bounded engine overhead (mode-dependent, at most
// exchangeBuffer frames per output) and are not charged to the query pool —
// like spill read-back frames, charging them against the budget that shaped
// the plan would deadlock producers against consumers.
const exchangeBuffer = 2

// localExchange moves pages between pipeline segments inside one task.
// Producers are started lazily on the first Next of any output, so building
// a plan never spawns goroutines. A closed done channel is the exchange-wide
// stop signal: the first source error, a context cancellation, or the last
// output Close (limit satisfied, query torn down) closes it, and every
// sibling producer observes it on its next send or pull — this is what makes
// "stop sibling drivers promptly" hold.
type localExchange struct {
	mode    exchangeMode
	sources []Operator
	keys    []int // partitioning key channels (exPartition only)
	ctx     context.Context

	outs []*exchangeOut
	done chan struct{}
	wg   sync.WaitGroup
	rr   atomic.Uint64 // round-robin cursor
	open atomic.Int32  // output endpoints not yet closed

	startOnce sync.Once
	launched  bool // set under startOnce: producers actually started
	stopOnce  sync.Once

	adapt *adaptiveState // exAdaptive / exAdaptiveFollow only

	mu       sync.Mutex
	err      error // first produce-side error (surfaced by Next after EOF)
	closeErr error // source Close errors (surfaced by the last output Close)
}

// defaultAdaptiveRows is the buffered-row threshold below which an adaptive
// exchange skips repartitioning (Context.adaptiveExchangeRows overrides).
const defaultAdaptiveRows = 4096

// adaptiveState is the decision shared between an adaptive exchange and its
// follower: undecided while pages accumulate in buf, then fixed to either
// exPartition (the data outgrew the limit) or the small-side mode.
type adaptiveState struct {
	limit int
	small exchangeMode  // decision when the build side stays under limit
	ch    chan struct{} // closed once mode is valid
	mode  exchangeMode

	mu      sync.Mutex
	decided bool
	buf     []*block.Page
	rows    int
}

func newAdaptiveState(ctx *Context, small exchangeMode) *adaptiveState {
	limit := ctx.adaptiveExchangeRows
	if limit == 0 {
		limit = defaultAdaptiveRows
	}
	return &adaptiveState{limit: limit, small: small, ch: make(chan struct{})}
}

// decideLocked fixes the routing mode and hands the buffered pages to the
// caller for flushing (outside the lock — sends can block on consumers).
func (st *adaptiveState) decideLocked(mode exchangeMode) []*block.Page {
	st.decided = true
	st.mode = mode
	close(st.ch)
	buf := st.buf
	st.buf = nil
	return buf
}

func (st *adaptiveState) isDecided() bool {
	select {
	case <-st.ch:
		return true
	default:
		return false
	}
}

// exchangeOut is one output stream of a localExchange. Each endpoint has a
// single consumer goroutine; the last endpoint closed tears the exchange
// down (stopping and joining producers, closing sources).
type exchangeOut struct {
	ex     *localExchange
	ch     chan *block.Page
	closed bool
	// dead is closed by Close: producers drop pages routed to a closed
	// endpoint instead of blocking on its full channel forever — without
	// this, one driver finishing early (its LIMIT satisfied) would wedge the
	// producers and starve every sibling driver of the same exchange.
	dead chan struct{}
}

// newLocalExchange wires sources to `outputs` fresh endpoints. keys is only
// used by exPartition. No goroutines start until an endpoint's first Next.
func newLocalExchange(ctx *Context, sources []Operator, mode exchangeMode, keys []int, outputs int) []Operator {
	ex := &localExchange{
		mode:    mode,
		sources: sources,
		keys:    keys,
		ctx:     ctx.Ctx,
		done:    make(chan struct{}),
	}
	ex.outs = make([]*exchangeOut, outputs)
	endpoints := make([]Operator, outputs)
	for i := range ex.outs {
		o := &exchangeOut{ex: ex, ch: make(chan *block.Page, exchangeBuffer), dead: make(chan struct{})}
		ex.outs[i] = o
		endpoints[i] = o
	}
	ex.open.Store(int32(outputs))
	return endpoints
}

// newAdaptiveExchange wires a partition exchange that may skip partitioning:
// it returns the endpoints plus the shared decision state a follower exchange
// (the join probe side) can key off. A negative Context.adaptiveExchangeRows
// disables adaptivity and yields a plain partition exchange (nil state).
func newAdaptiveExchange(ctx *Context, sources []Operator, keys []int, outputs int, small exchangeMode) ([]Operator, *adaptiveState) {
	if ctx.adaptiveExchangeRows < 0 {
		return newLocalExchange(ctx, sources, exPartition, keys, outputs), nil
	}
	st := newAdaptiveState(ctx, small)
	ends := newLocalExchange(ctx, sources, exAdaptive, keys, outputs)
	ends[0].(*exchangeOut).ex.adapt = st
	return ends, st
}

// newFollowerExchange wires the probe side of an adaptively-exchanged join:
// partition when the build side partitioned, round-robin when it broadcast.
// With adaptivity disabled (nil state) it is a plain partition exchange.
func newFollowerExchange(ctx *Context, sources []Operator, keys []int, outputs int, st *adaptiveState) []Operator {
	if st == nil {
		return newLocalExchange(ctx, sources, exPartition, keys, outputs)
	}
	ends := newLocalExchange(ctx, sources, exAdaptiveFollow, keys, outputs)
	ends[0].(*exchangeOut).ex.adapt = st
	return ends
}

// gatherOne reduces k streams to a single serial operator (identity for k=1).
func gatherOne(ctx *Context, streams []Operator) Operator {
	if len(streams) == 1 {
		return streams[0]
	}
	return newLocalExchange(ctx, streams, exGather, nil, 1)[0]
}

func (ex *localExchange) start() {
	ex.startOnce.Do(func() {
		ex.launched = true
		ex.wg.Add(len(ex.sources))
		for i := range ex.sources {
			go ex.produce(i)
		}
		if ex.mode != exPassthrough {
			// Outputs are shared by all producers: a closer goroutine closes
			// them once every producer has exited (and recorded any error).
			go func() {
				ex.wg.Wait()
				if ex.mode == exAdaptive {
					// Every producer finished while undecided: the data
					// stayed under the limit, so skip partitioning and
					// flush the buffer in the small mode.
					ex.flushAdaptive()
				}
				for _, o := range ex.outs {
					close(o.ch)
				}
			}()
		}
	})
}

// produce runs one source stream to completion, routing its pages.
func (ex *localExchange) produce(i int) {
	defer ex.wg.Done()
	src := ex.sources[i]
	defer func() {
		if err := src.Close(); err != nil {
			ex.mu.Lock()
			ex.closeErr = errors.Join(ex.closeErr, err)
			ex.mu.Unlock()
		}
	}()
	if ex.mode == exPassthrough {
		// Sole writer of outs[i]: closing it per-producer lets the consumer
		// see this stream's EOF without waiting for sibling producers.
		defer close(ex.outs[i].ch)
	}
	var pt *partitioner
	if ex.mode == exPartition || ex.mode == exAdaptive || ex.mode == exAdaptiveFollow {
		pt = newPartitioner(ex)
		defer pt.release()
	}
	// Deferred last, so it runs first: the failure is recorded before this
	// producer's output closes and a consumer can take the close for EOF.
	defer func() {
		if err := block.RecoveredLoadError(recover()); err != nil {
			ex.fail(err)
		}
	}()
	for {
		select {
		case <-ex.done:
			return
		default:
		}
		if err := ex.ctx.Err(); err != nil {
			ex.fail(err)
			return
		}
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			ex.fail(err)
			return
		}
		if p == nil || p.Count() == 0 {
			continue
		}
		if !ex.dispatch(i, pt, p) {
			return
		}
	}
}

// dispatch routes one page; false means the exchange is stopping.
func (ex *localExchange) dispatch(i int, pt *partitioner, p *block.Page) bool {
	switch ex.mode {
	case exGather:
		return ex.send(0, p)
	case exPassthrough:
		return ex.send(i, p)
	case exRoundRobin:
		j := int(ex.rr.Add(1)-1) % len(ex.outs)
		return ex.send(j, p)
	case exAdaptive:
		return ex.adaptDispatch(pt, p)
	case exAdaptiveFollow:
		return ex.followDispatch(pt, p)
	case exBroadcast:
		return ex.broadcast(p)
	default: // exPartition
		return pt.dispatch(p)
	}
}

// broadcast copies one page to every output.
func (ex *localExchange) broadcast(p *block.Page) bool {
	for j := range ex.outs {
		if !ex.send(j, p) {
			return false
		}
	}
	return true
}

// adaptDispatch routes one page of an undecided-or-decided adaptive
// exchange. While undecided, pages are buffered under the state lock; the
// producer that pushes the row count over the limit makes the partition
// decision and flushes the backlog through its own partitioner (hashing is
// deterministic, so whose partitioner does it is irrelevant).
func (ex *localExchange) adaptDispatch(pt *partitioner, p *block.Page) bool {
	st := ex.adapt
	if st.isDecided() {
		return ex.routeDecided(pt, p)
	}
	// Buffered pages outlive this producer and may be consumed from any
	// driver; force lazy columns now, while a single goroutine owns them —
	// and before taking the state lock: a loader that fails panics, and a
	// panic under the lock would leave every other producer and the final
	// flush waiting for it forever.
	p = forceLazy(p)
	st.mu.Lock()
	if st.decided {
		st.mu.Unlock()
		return ex.routeDecided(pt, p)
	}
	st.buf = append(st.buf, p)
	st.rows += p.Count()
	if st.rows <= st.limit {
		st.mu.Unlock()
		return true
	}
	buf := st.decideLocked(exPartition)
	st.mu.Unlock()
	for _, q := range buf {
		if !pt.dispatch(q) {
			return false
		}
	}
	return true
}

// routeDecided routes per the adaptive decision.
func (ex *localExchange) routeDecided(pt *partitioner, p *block.Page) bool {
	switch ex.adapt.mode {
	case exPartition:
		return pt.dispatch(p)
	case exBroadcast:
		return ex.broadcast(forceLazy(p))
	default: // exGather
		return ex.send(0, p)
	}
}

// flushAdaptive runs after the last producer exits: an undecided exchange
// stayed under the limit, so fix the small mode and deliver the backlog.
func (ex *localExchange) flushAdaptive() {
	st := ex.adapt
	st.mu.Lock()
	if st.decided {
		st.mu.Unlock()
		return
	}
	buf := st.decideLocked(st.small)
	st.mu.Unlock()
	for _, p := range buf {
		var ok bool
		if st.mode == exBroadcast {
			ok = ex.broadcast(p)
		} else {
			ok = ex.send(0, p)
		}
		if !ok {
			return
		}
	}
}

// followDispatch blocks until the build side decides, then mirrors it:
// partition with the same hash (matching keys meet on one driver) or
// round-robin against the broadcast build table.
func (ex *localExchange) followDispatch(pt *partitioner, p *block.Page) bool {
	st := ex.adapt
	select {
	case <-st.ch:
	case <-ex.done:
		return false
	case <-ex.ctx.Done():
		ex.fail(ex.ctx.Err())
		return false
	}
	if st.mode == exPartition {
		return pt.dispatch(p)
	}
	j := int(ex.rr.Add(1)-1) % len(ex.outs)
	return ex.send(j, p)
}

// send delivers a page to output j. It returns false only when the whole
// exchange is stopping (last consumer closed, sibling error) or the task
// context is cancelled; a page routed to an individually closed endpoint is
// dropped (true) — that consumer declared it needs nothing more.
func (ex *localExchange) send(j int, p *block.Page) bool {
	out := ex.outs[j]
	select {
	case out.ch <- p:
		return true
	case <-out.dead:
		return true
	case <-ex.done:
		return false
	case <-ex.ctx.Done():
		ex.fail(ex.ctx.Err())
		return false
	}
}

// fail records the first produce-side error and stops every sibling.
func (ex *localExchange) fail(err error) {
	ex.mu.Lock()
	if ex.err == nil {
		ex.err = err
	}
	ex.mu.Unlock()
	ex.stopOnce.Do(func() { close(ex.done) })
}

func (ex *localExchange) firstErr() error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.err
}

// release is called by each endpoint Close; the last one tears down: stop
// producers, join them (so no goroutine outlives the operator tree — the
// chaos suite leak-checks this), and close sources that never ran.
func (ex *localExchange) release() error {
	if ex.open.Add(-1) > 0 {
		return nil
	}
	ex.stopOnce.Do(func() { close(ex.done) })
	// Claim the start once: either producers were launched (join them) or
	// they never will be (close the sources ourselves).
	ex.startOnce.Do(func() {})
	if ex.launched {
		ex.wg.Wait()
	} else {
		var errs error
		for _, s := range ex.sources {
			errs = errors.Join(errs, s.Close())
		}
		ex.mu.Lock()
		ex.closeErr = errors.Join(ex.closeErr, errs)
		ex.mu.Unlock()
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.closeErr
}

func (o *exchangeOut) Next() (*block.Page, error) {
	o.ex.start()
	p, ok := <-o.ch
	if !ok {
		// Channel closed ⇒ producers exited ⇒ any error is published.
		if err := o.ex.firstErr(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return p, nil
}

func (o *exchangeOut) Close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	close(o.dead)
	return o.ex.release()
}

// ---------------------------------------------------------------------------
// Hash partitioning.

// partitioner is one producer's scratch state for exPartition: per-output
// selection vectors (leased from the block pool) and a reusable hash buffer,
// so routing a page allocates nothing beyond the masked output blocks.
type partitioner struct {
	ex        *localExchange
	selectors []*block.Positions
	hasher    vector.Hasher
	hashes    []uint64
}

func newPartitioner(ex *localExchange) *partitioner {
	pt := &partitioner{
		ex:        ex,
		selectors: make([]*block.Positions, len(ex.outs)),
	}
	for i := range pt.selectors {
		pt.selectors[i] = block.GetPositions()
	}
	return pt
}

func (pt *partitioner) release() {
	for _, s := range pt.selectors {
		block.PutPositions(s)
	}
	pt.selectors = nil
}

// dispatch routes the rows of one page by key hash — vector.Hasher hashes
// whole key columns at a time (encoding-aware, no per-row boxing), which is
// what keeps a 2-driver partition exchange cheaper than the serial plan it
// replaces. Rows are batched into per-output selection vectors and masked
// out vectorized (Mask copies the selected rows, so the vectors are reusable
// immediately); a page whose rows all hash to one output is forwarded as-is.
// Both sides of a partitioned join route through this same value-based hash,
// which is what makes matching keys meet on the same driver.
func (pt *partitioner) dispatch(p *block.Page) bool {
	// Force lazy columns here, in the single producer goroutine: masking a
	// lazy block yields derived blocks whose loaders all funnel into the
	// parent's first Load, and Load is not safe for concurrent first use —
	// sibling consumers would race on it. (Rows crossing a partition
	// exchange feed aggregations/joins that read every column anyway, so
	// nothing is decoded that lazy reads would have skipped.)
	p = forceLazy(p)
	ex := pt.ex
	n := uint64(len(ex.outs))
	for _, s := range pt.selectors {
		s.Buf = s.Buf[:0]
	}
	rows := p.Count()
	if cap(pt.hashes) < rows {
		pt.hashes = make([]uint64, rows)
	}
	hashes := pt.hashes[:rows]
	pt.hasher.HashPage(p, ex.keys, hashes)
	for r, h := range hashes {
		j := h % n
		pt.selectors[j].Buf = append(pt.selectors[j].Buf, r)
	}
	for j, s := range pt.selectors {
		switch {
		case len(s.Buf) == 0:
			continue
		case len(s.Buf) == p.Count():
			if !ex.send(j, p) {
				return false
			}
		default:
			if !ex.send(j, p.Mask(s.Buf)) {
				return false
			}
		}
	}
	return true
}

// forceLazy returns p with every top-level lazy column materialized (a
// no-op page without them).
func forceLazy(p *block.Page) *block.Page {
	lazy := false
	for _, b := range p.Blocks {
		if _, ok := b.(*block.LazyBlock); ok {
			lazy = true
			break
		}
	}
	if !lazy {
		return p
	}
	blocks := make([]block.Block, len(p.Blocks))
	for i, b := range p.Blocks {
		if l, ok := b.(*block.LazyBlock); ok {
			blocks[i] = l.Load()
		} else {
			blocks[i] = b
		}
	}
	return &block.Page{Blocks: blocks, N: p.N}
}
