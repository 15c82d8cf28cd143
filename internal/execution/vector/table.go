package vector

import (
	"prestolite/internal/block"
	"prestolite/internal/types"
)

// initialSlots is the starting slot-array size (power of two).
const initialSlots = 64

// Estimated heap cost of a group of a grouped aggregation: a fixed overhead
// per group plus one state per aggregate, on top of the key stores. Hash
// aggregation charges its groups by it, and so does a connector's Partial.
const (
	GroupBaseCost = 96
	AggStateCost  = 48
)

// GroupTable is a flat open-addressing (linear probe) hash table mapping
// group keys to dense group ids 0..Len()-1. Keys live in typed Column
// stores and rows arrive pre-hashed, so assigning a batch of rows does no
// per-row interface dispatch and no per-row key encoding.
type GroupTable struct {
	cols   []*Column
	hashes []uint64 // per group
	slots  []int32  // group id, or -1 when empty
	mask   uint64
	// dampen masks stored hashes; ^0 in production. The fuzz harness
	// shrinks it to force hash collisions through the equality path.
	dampen uint64
}

// NewGroupTable builds a table keyed by the given column types; ok is false
// when any key type is outside the vector kernels.
func NewGroupTable(keyTypes []*types.Type) (*GroupTable, bool) {
	t := &GroupTable{dampen: ^uint64(0)}
	for _, kt := range keyTypes {
		c, ok := NewColumn(kt)
		if !ok {
			return nil, false
		}
		c.key = true
		t.cols = append(t.cols, c)
	}
	t.slots = newSlots(initialSlots)
	t.mask = initialSlots - 1
	return t, true
}

func newSlots(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// Len is the number of distinct groups.
func (t *GroupTable) Len() int { return len(t.hashes) }

// KeyBytes is the retained size of the key stores alone.
func (t *GroupTable) KeyBytes() int64 {
	var n int64
	for _, c := range t.cols {
		n += c.Bytes()
	}
	return n
}

// Bytes estimates what the groups hold with aggs aggregate states each.
func (t *GroupTable) Bytes(aggs int) int64 {
	return int64(t.Len())*(GroupBaseCost+int64(aggs)*AggStateCost) + t.KeyBytes()
}

// Assign maps each of the n pre-hashed rows (key columns in views) to its
// group id, creating groups for unseen keys. ids[:n] receives the mapping.
func (t *GroupTable) Assign(views []*View, n int, hashes []uint64, ids []int32) {
	for r := 0; r < n; r++ {
		h := hashes[r] & t.dampen
		slot := h & t.mask
		for {
			g := t.slots[slot]
			if g < 0 {
				g = int32(len(t.hashes))
				t.hashes = append(t.hashes, h)
				for c, col := range t.cols {
					col.AppendRow(views[c], r)
				}
				t.slots[slot] = g
				ids[r] = g
				if 4*len(t.hashes) >= 3*len(t.slots) {
					t.growSlots()
				}
				break
			}
			if t.hashes[g] == h && t.equal(int(g), views, r) {
				ids[r] = g
				break
			}
			slot = (slot + 1) & t.mask
		}
	}
}

// equal compares group g's stored key against row r of the key views.
func (t *GroupTable) equal(g int, views []*View, r int) bool {
	for c, col := range t.cols {
		if !col.equalRow(g, views[c], r) {
			return false
		}
	}
	return true
}

// growSlots doubles the slot array and reinserts by stored hash (groups are
// distinct by construction, so no equality checks are needed).
func (t *GroupTable) growSlots() {
	slots := newSlots(2 * len(t.slots))
	mask := uint64(len(slots) - 1)
	for g, h := range t.hashes {
		slot := h & mask
		for slots[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		slots[slot] = int32(g)
	}
	t.slots, t.mask = slots, mask
}

// KeyBlock emits key column c for groups [from, to).
func (t *GroupTable) KeyBlock(c, from, to int) block.Block { return t.cols[c].Block(from, to) }

// Reset empties the table, retaining allocations where cheap (post-spill
// rebuild).
func (t *GroupTable) Reset() {
	for i, c := range t.cols {
		t.cols[i] = &Column{typ: c.typ, kind: c.kind, key: true}
	}
	t.hashes = t.hashes[:0]
	t.slots = newSlots(initialSlots)
	t.mask = initialSlots - 1
}

// DictMemo assigns rows to groups once per distinct combination of
// dictionary ids instead of once per row, when every key column of a batch
// is dictionary-encoded. The zero value is ready to use; it keeps its scratch
// from batch to batch.
//
// The ids of a row combine into one code, id+1 per column in mixed radix
// (dictionary size + 1), so that NULL (id -1) is a code of its own. The
// first row of each code, in first-use order, goes through the hash/Assign
// path; every row then takes its code's group. Entries no row uses never
// open a group, and group ids come out first-seen, as the row path assigns
// them: a key's first row is its first code's first row.
type DictMemo struct {
	slot   []int32 // per code: its place among the codes in use, or -1
	codes  []int32 // per row: its code, then its code's place
	first  []int32 // per code in use: its first row
	ids    [][]int32
	views  []View
	vptrs  []*View
	hashes []uint64
	groups []int32
	hasher Hasher
}

// Assign maps the n rows of views to groups of t, as t.Assign over their
// hashes would, and reports true — when every view is a dictionary view and
// the product of (dictionary size + 1) over them is at most n: a memo that
// size costs no more than the rows it saves. Otherwise it does nothing and
// reports false.
func (m *DictMemo) Assign(t *GroupTable, views []*View, n int, ids []int32) bool {
	if len(views) == 0 {
		return false
	}
	codes := 1
	for _, v := range views {
		if v.Ids == nil || v.Const {
			return false
		}
		if codes *= v.dictLen() + 1; codes > n {
			return false
		}
	}
	m.slot = grown(m.slot, codes)[:codes]
	for c := range m.slot {
		m.slot[c] = -1
	}
	m.codes = grown(m.codes, n)[:n]
	for r, id := range views[0].Ids[:n] {
		m.codes[r] = id + 1
	}
	stride := int32(views[0].dictLen() + 1)
	for _, v := range views[1:] {
		for r, id := range v.Ids[:n] {
			m.codes[r] += (id + 1) * stride
		}
		stride *= int32(v.dictLen() + 1)
	}
	m.first = m.first[:0]
	for r, c := range m.codes {
		if m.slot[c] < 0 {
			m.slot[c] = int32(len(m.first))
			m.first = append(m.first, int32(r))
		}
		m.codes[r] = m.slot[c]
	}

	k := len(m.first)
	if len(m.views) != len(views) {
		m.ids = make([][]int32, len(views))
		m.views = make([]View, len(views))
		m.vptrs = make([]*View, len(views))
	}
	m.hashes = grown(m.hashes, k)[:k]
	clear(m.hashes)
	for c, v := range views {
		m.ids[c] = m.ids[c][:0]
		for _, r := range m.first {
			m.ids[c] = append(m.ids[c], v.Ids[r])
		}
		m.views[c] = *v
		m.views[c].Ids, m.views[c].N = m.ids[c], k
		m.vptrs[c] = &m.views[c]
		m.hasher.HashView(m.vptrs[c], k, m.hashes)
	}
	m.groups = grown(m.groups, k)[:k]
	t.Assign(m.vptrs, k, m.hashes, m.groups)
	for r, i := range m.codes {
		ids[r] = m.groups[i]
	}
	return true
}

// ---------------------------------------------------------------------------

// JoinTable maps join keys to chains of build-side row indices. The build
// rows themselves live in the caller's Column stores; the table keeps one
// entry per distinct key (hash + first row) and threads equal-keyed rows
// through next, so probing walks an int32 chain.
type JoinTable struct {
	keyCols []*Column // the caller's key-column stores (shared, not owned)
	hashes  []uint64  // per entry
	head    []int32   // per entry: most recently inserted row of the chain
	next    []int32   // per build row: next row with the same key, or -1
	slots   []int32   // entry index, or -1
	mask    uint64
	dampen  uint64
}

// NewJoinTable builds a table over the given key-column stores (the build
// side's key channels, shared with its output store).
func NewJoinTable(keyCols []*Column) *JoinTable {
	return &JoinTable{
		keyCols: keyCols,
		slots:   newSlots(initialSlots),
		mask:    initialSlots - 1,
		dampen:  ^uint64(0),
	}
}

// Bytes estimates the table's own retained memory (the key-column stores
// are accounted by their owner).
func (jt *JoinTable) Bytes() int64 {
	return int64(8*len(jt.hashes) + 4*len(jt.head) + 4*len(jt.next) + 4*len(jt.slots))
}

// Insert indexes rows [base, base+n) of the build store, whose key columns
// were just appended from views with the given hashes. Rows with a null or
// NaN key are skipped: neither is `=` to anything. With no key columns at
// all every row hashes to 0 and chains under one entry, so a probe row
// meets the whole build side — the cross join.
func (jt *JoinTable) Insert(views []*View, n int, hashes []uint64, base int) {
	jt.next = grown(jt.next, base+n)
	for r := 0; r < n; r++ {
		row := int32(base + r)
		jt.next[row] = -1
		if unmatchable(views, r) {
			continue
		}
		h := hashes[r] & jt.dampen
		slot := h & jt.mask
		for {
			e := jt.slots[slot]
			if e < 0 {
				e = int32(len(jt.hashes))
				jt.hashes = append(jt.hashes, h)
				jt.head = append(jt.head, row)
				jt.slots[slot] = e
				if 4*len(jt.hashes) >= 3*len(jt.slots) {
					jt.growSlots()
				}
				break
			}
			if jt.hashes[e] == h && jt.equalEntry(int(e), views, r) {
				jt.next[row] = jt.head[e]
				jt.head[e] = row
				break
			}
			slot = (slot + 1) & jt.mask
		}
	}
}

// equalEntry compares entry e's key (read from its first chained row in the
// shared stores) against probe/build row r of views.
func (jt *JoinTable) equalEntry(e int, views []*View, r int) bool {
	row := int(jt.head[e])
	for c, col := range jt.keyCols {
		if !col.equalRow(row, views[c], r) {
			return false
		}
	}
	return true
}

func (jt *JoinTable) growSlots() {
	slots := newSlots(2 * len(jt.slots))
	mask := uint64(len(slots) - 1)
	for e, h := range jt.hashes {
		slot := h & mask
		for slots[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		slots[slot] = int32(e)
	}
	jt.slots, jt.mask = slots, mask
}

// unmatchable reports whether row r's key is `=` to nothing: a null in any
// key view, or a NaN double.
func unmatchable(views []*View, r int) bool {
	for _, v := range views {
		i := v.at(r)
		if i < 0 || v.Kind == KindFloat64 && v.F64[i] != v.F64[i] {
			return true
		}
	}
	return false
}

// Probe matches n pre-hashed probe rows (key columns in views) against the
// table, appending one (probe row, build row) pair per match to probeSel
// and buildRows. Probe rows with a null or NaN key never match.
func (jt *JoinTable) Probe(views []*View, n int, hashes []uint64, probeSel []int, buildRows []int32) ([]int, []int32) {
	for r := 0; r < n; r++ {
		if unmatchable(views, r) {
			continue
		}
		h := hashes[r] & jt.dampen
		slot := h & jt.mask
		for {
			e := jt.slots[slot]
			if e < 0 {
				break
			}
			if jt.hashes[e] == h && jt.equalEntry(int(e), views, r) {
				for row := jt.head[e]; row >= 0; row = jt.next[row] {
					probeSel = append(probeSel, r)
					buildRows = append(buildRows, row)
				}
				break
			}
			slot = (slot + 1) & jt.mask
		}
	}
	return probeSel, buildRows
}
