package geo

import (
	"math"
	"sort"
)

// BBox is an axis-aligned bounding box.
type BBox struct {
	MinLng, MinLat, MaxLng, MaxLat float64
}

// EmptyBBox is the identity for Union.
func EmptyBBox() BBox {
	return BBox{MinLng: math.Inf(1), MinLat: math.Inf(1), MaxLng: math.Inf(-1), MaxLat: math.Inf(-1)}
}

// Union expands b to include o.
func (b BBox) Union(o BBox) BBox {
	return BBox{
		MinLng: math.Min(b.MinLng, o.MinLng),
		MinLat: math.Min(b.MinLat, o.MinLat),
		MaxLng: math.Max(b.MaxLng, o.MaxLng),
		MaxLat: math.Max(b.MaxLat, o.MaxLat),
	}
}

// ContainsPoint reports whether p lies inside (or on) the box.
func (b BBox) ContainsPoint(p Point) bool {
	return p.Lng >= b.MinLng && p.Lng <= b.MaxLng && p.Lat >= b.MinLat && p.Lat <= b.MaxLat
}

// BoundsOf computes the bounding box of a geometry.
func BoundsOf(g *Geometry) BBox {
	out := EmptyBBox()
	add := func(p Point) {
		out = out.Union(BBox{MinLng: p.Lng, MinLat: p.Lat, MaxLng: p.Lng, MaxLat: p.Lat})
	}
	if g.Point != nil {
		add(*g.Point)
	}
	for _, poly := range g.Polygons {
		for _, p := range poly.Outer {
			add(p)
		}
	}
	return out
}

// QuadTree indexes bounding boxes by recursively decomposing 2-D space into
// four quadrants (§VI.D, [Finkel & Bentley 1974]). Rectangles are stored at
// the deepest node that fully contains them; probes descend to the quadrant
// containing the point, collecting candidates whose boxes contain it.
type QuadTree struct {
	root       *quadNode
	maxDepth   int
	maxEntries int
	size       int
}

type quadEntry struct {
	id   int32
	bbox BBox
}

type quadNode struct {
	bounds   BBox
	entries  []quadEntry
	children *[4]*quadNode
	depth    int
}

// QuadTreeOptions tunes tree shape (ablated in benchmarks).
type QuadTreeOptions struct {
	// MaxDepth bounds recursion (default 12).
	MaxDepth int
	// MaxEntries is the split threshold per leaf (default 8).
	MaxEntries int
}

// NewQuadTree builds an index over the given space.
func NewQuadTree(bounds BBox, opts QuadTreeOptions) *QuadTree {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 12
	}
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 8
	}
	return &QuadTree{
		root:       &quadNode{bounds: bounds},
		maxDepth:   opts.MaxDepth,
		maxEntries: opts.MaxEntries,
	}
}

// Len returns the number of indexed entries.
func (t *QuadTree) Len() int { return t.size }

// Insert adds a rectangle with an identifier.
func (t *QuadTree) Insert(id int32, bbox BBox) {
	t.insert(t.root, quadEntry{id: id, bbox: bbox})
	t.size++
}

func (t *QuadTree) insert(n *quadNode, e quadEntry) {
	if n.children == nil {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.maxEntries && n.depth < t.maxDepth {
			t.split(n)
		}
		return
	}
	if child := t.childFor(n, e.bbox); child != nil {
		t.insert(child, e)
		return
	}
	n.entries = append(n.entries, e) // straddles quadrants: keep here
}

func (t *QuadTree) split(n *quadNode) {
	midLng := (n.bounds.MinLng + n.bounds.MaxLng) / 2
	midLat := (n.bounds.MinLat + n.bounds.MaxLat) / 2
	n.children = &[4]*quadNode{
		{bounds: BBox{n.bounds.MinLng, n.bounds.MinLat, midLng, midLat}, depth: n.depth + 1},
		{bounds: BBox{midLng, n.bounds.MinLat, n.bounds.MaxLng, midLat}, depth: n.depth + 1},
		{bounds: BBox{n.bounds.MinLng, midLat, midLng, n.bounds.MaxLat}, depth: n.depth + 1},
		{bounds: BBox{midLng, midLat, n.bounds.MaxLng, n.bounds.MaxLat}, depth: n.depth + 1},
	}
	old := n.entries
	n.entries = nil
	for _, e := range old {
		if child := t.childFor(n, e.bbox); child != nil {
			t.insert(child, e)
		} else {
			n.entries = append(n.entries, e)
		}
	}
}

// childFor returns the single child quadrant fully containing bbox, or nil.
func (t *QuadTree) childFor(n *quadNode, b BBox) *quadNode {
	for _, c := range n.children {
		if b.MinLng >= c.bounds.MinLng && b.MaxLng <= c.bounds.MaxLng &&
			b.MinLat >= c.bounds.MinLat && b.MaxLat <= c.bounds.MaxLat {
			return c
		}
	}
	return nil
}

// Candidates returns ids of entries whose rectangle contains p, appended to
// out. "The majority of bounded rectangles that do not contain target point
// could be filtered out" (§VI.D). Points exactly on a quadrant boundary
// belong to multiple children, so every containing child is descended.
func (t *QuadTree) Candidates(p Point, out []int32) []int32 {
	var walk func(n *quadNode)
	walk = func(n *quadNode) {
		for _, e := range n.entries {
			if e.bbox.ContainsPoint(p) {
				out = append(out, e.id)
			}
		}
		if n.children == nil {
			return
		}
		for _, c := range n.children {
			if c.bounds.ContainsPoint(p) {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out
}

// ---------------------------------------------------------------------------
// GeoIndex: the build_geo_index aggregation result — shapes plus a QuadTree
// over their bounding boxes (§VI.E).

// GeoIndex is a serialized/deserializable spatial index over geofences.
type GeoIndex struct {
	Shapes []*Geometry
	tree   *QuadTree
}

// BuildIndex constructs a GeoIndex from WKT geofences (invalid WKT returns
// an error: geofence tables are trusted inputs).
func BuildIndex(wkts []string) (*GeoIndex, error) {
	idx := &GeoIndex{}
	bounds := EmptyBBox()
	boxes := make([]BBox, 0, len(wkts))
	for _, w := range wkts {
		g, err := ParseWKT(w)
		if err != nil {
			return nil, err
		}
		idx.Shapes = append(idx.Shapes, g)
		b := BoundsOf(g)
		boxes = append(boxes, b)
		bounds = bounds.Union(b)
	}
	idx.tree = NewQuadTree(bounds, QuadTreeOptions{})
	for i, b := range boxes {
		idx.tree.Insert(int32(i), b)
	}
	return idx, nil
}

// Lookup returns the indexes of shapes containing p: QuadTree filters to
// candidate rectangles, st_contains verifies only those.
func (idx *GeoIndex) Lookup(p Point) []int {
	if len(idx.Shapes) == 0 {
		return nil
	}
	cands := idx.tree.Candidates(p, nil)
	var out []int
	for _, id := range cands {
		if Contains(idx.Shapes[id], p) {
			out = append(out, int(id))
		}
	}
	sort.Ints(out)
	return out
}
