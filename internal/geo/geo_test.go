package geo

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePoint(t *testing.T) {
	// The paper's example point (§VI.A).
	g, err := ParseWKT("POINT (77.3548351 28.6973627)")
	if err != nil {
		t.Fatal(err)
	}
	if g.Point == nil || g.Point.Lng != 77.3548351 || g.Point.Lat != 28.6973627 {
		t.Fatalf("point = %+v", g.Point)
	}
}

func TestParsePolygon(t *testing.T) {
	// The paper's example polygon (§VI.A).
	wkt := `POLYGON ((36.814155579 -1.3174386070000002,
		36.814863682 -1.317545867,
		36.814863682 -1.318221605,
		36.813973188 -1.317910551,
		36.814155579 -1.3174386070000002))`
	g, err := ParseWKT(wkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Polygons) != 1 || len(g.Polygons[0].Outer) != 5 {
		t.Fatalf("polygons = %+v", g.Polygons)
	}
}

func TestParseMultiPolygonAndHoles(t *testing.T) {
	wkt := "MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1)), ((10 10, 12 10, 12 12, 10 12, 10 10)))"
	g, err := ParseWKT(wkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Polygons) != 2 || len(g.Polygons[0].Holes) != 1 {
		t.Fatalf("parsed = %+v", g.Polygons)
	}
	// Inside outer, outside hole.
	if !Contains(g, Point{0.5, 0.5}) {
		t.Error("0.5,0.5 should be inside")
	}
	// Inside the hole.
	if Contains(g, Point{1.5, 1.5}) {
		t.Error("1.5,1.5 is in the hole")
	}
	// In the second polygon.
	if !Contains(g, Point{11, 11}) {
		t.Error("11,11 should be inside")
	}
	if Contains(g, Point{6, 6}) {
		t.Error("6,6 is outside both")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"CIRCLE (1 2)",
		"POINT (1)",
		"POINT (1 2",
		"POLYGON ((0 0, 1 0, 0 0))",      // too few points
		"POLYGON ((0 0, 1 0, 1 1, 2 2))", // not closed
		"POINT (1 2) trailing",
		"POLYGON 0 0",
	}
	for _, s := range bad {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("ParseWKT(%q) unexpectedly succeeded", s)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	cases := []string{
		"POINT (1.5 -2.25)",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))",
	}
	for _, s := range cases {
		g, err := ParseWKT(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		var out string
		if g.Point != nil {
			out = FormatPoint(*g.Point)
		} else if len(g.Polygons) == 1 && !strings.HasPrefix(s, "MULTI") {
			out = FormatPolygon(g.Polygons[0])
		} else {
			out = FormatMultiPolygon(g.Polygons)
		}
		if out != s {
			t.Errorf("round trip: %q -> %q", s, out)
		}
	}
}

// regularPolygon builds an n-gon centered at (cx, cy).
func regularPolygon(cx, cy, r float64, n int) Polygon {
	ring := make(Ring, 0, n+1)
	for i := 0; i < n; i++ {
		theta := 2 * 3.141592653589793 * float64(i) / float64(n)
		ring = append(ring, Point{cx + r*cos(theta), cy + r*sin(theta)})
	}
	ring = append(ring, ring[0])
	return Polygon{Outer: ring}
}

func cos(x float64) float64 { return sin(x + 3.141592653589793/2) }

func sin(x float64) float64 {
	// Use the stdlib via a tiny indirection to keep imports tidy.
	return mathSin(x)
}

func TestQuadTreeCandidates(t *testing.T) {
	tree := NewQuadTree(BBox{0, 0, 100, 100}, QuadTreeOptions{MaxEntries: 2})
	boxes := []BBox{
		{0, 0, 10, 10},
		{20, 20, 30, 30},
		{25, 25, 35, 35},
		{80, 80, 90, 90},
		{0, 0, 100, 100}, // straddles everything: stays at the root
	}
	for i, b := range boxes {
		tree.Insert(int32(i), b)
	}
	if tree.Len() != 5 {
		t.Errorf("len = %d", tree.Len())
	}
	cands := tree.Candidates(Point{5, 5}, nil)
	if !containsAll(cands, 0, 4) || containsAny(cands, 1, 2, 3) {
		t.Errorf("candidates(5,5) = %v", cands)
	}
	cands = tree.Candidates(Point{27, 27}, nil)
	if !containsAll(cands, 1, 2, 4) || containsAny(cands, 0, 3) {
		t.Errorf("candidates(27,27) = %v", cands)
	}
	cands = tree.Candidates(Point{50, 95}, nil)
	if !containsAll(cands, 4) || containsAny(cands, 0, 1, 2, 3) {
		t.Errorf("candidates(50,95) = %v", cands)
	}
}

func containsAll(got []int32, want ...int32) bool {
	set := map[int32]bool{}
	for _, g := range got {
		set[g] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}

func containsAny(got []int32, vals ...int32) bool {
	set := map[int32]bool{}
	for _, g := range got {
		set[g] = true
	}
	for _, v := range vals {
		if set[v] {
			return true
		}
	}
	return false
}

func TestGeoIndexLookup(t *testing.T) {
	// A grid of city geofences.
	var wkts []string
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			poly := regularPolygon(float64(i*10+5), float64(j*10+5), 4, 16)
			wkts = append(wkts, FormatPolygon(poly))
		}
	}
	idx, err := BuildIndex(wkts)
	if err != nil {
		t.Fatal(err)
	}
	// A point at a cell center hits exactly that cell.
	got := idx.Lookup(Point{15, 25})
	if len(got) != 1 || got[0] != 1*10+2 {
		t.Errorf("lookup = %v", got)
	}
	// A point between cells hits nothing.
	if got := idx.Lookup(Point{10, 10}); len(got) != 0 {
		t.Errorf("gap lookup = %v", got)
	}
	// Brute force agrees.
	for _, p := range []Point{{15, 25}, {10, 10}, {95, 95}, {0.1, 0.1}} {
		if !reflect.DeepEqual(idx.Lookup(p), lookupBrute(idx, p)) {
			t.Errorf("quadtree and brute force disagree at %v: %v vs %v", p, idx.Lookup(p), lookupBrute(idx, p))
		}
	}
}

// lookupBrute is the oracle: test every shape (what the un-rewritten
// st_contains join does per row).
func lookupBrute(idx *GeoIndex, p Point) []int {
	var out []int
	for i, g := range idx.Shapes {
		if Contains(g, p) {
			out = append(out, i)
		}
	}
	return out
}

// Property: QuadTree lookup == brute force for random polygons and points
// (the correctness invariant behind the 50X speedup claim — the index must
// not change results).
func TestQuickQuadTreeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40) + 1
		var wkts []string
		for i := 0; i < n; i++ {
			cx, cy := r.Float64()*100, r.Float64()*100
			radius := r.Float64()*8 + 0.5
			verts := r.Intn(20) + 3
			wkts = append(wkts, FormatPolygon(regularPolygon(cx, cy, radius, verts)))
		}
		idx, err := BuildIndex(wkts)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		for k := 0; k < 50; k++ {
			p := Point{r.Float64()*110 - 5, r.Float64()*110 - 5}
			if !reflect.DeepEqual(idx.Lookup(p), lookupBrute(idx, p)) {
				t.Logf("mismatch at %v", p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStContainsFunction(t *testing.T) {
	shape := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"
	ok, err := StContains(shape, FormatPoint(Point{5, 5}))
	if err != nil || !ok {
		t.Errorf("st_contains inside = %v, %v", ok, err)
	}
	ok, err = StContains(shape, FormatPoint(Point{15, 5}))
	if err != nil || ok {
		t.Errorf("st_contains outside = %v, %v", ok, err)
	}
	if _, err := StContains("garbage", "POINT (1 1)"); err == nil {
		t.Error("bad shape accepted")
	}
	if _, err := StContains(shape, shape); err == nil {
		t.Error("non-point second arg accepted")
	}
}

func TestSerializeIndexRoundTrip(t *testing.T) {
	wkts := []string{
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
		"MULTIPOLYGON (((20 20, 30 20, 30 30, 20 30, 20 20)))",
		FormatPoint(Point{50, 50}),
	}
	idx, err := BuildIndex(wkts)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DeserializeIndex(SerializeIndex(idx))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{5, 5}, {25, 25}, {50, 50}, {99, 99}} {
		if !reflect.DeepEqual(idx.Lookup(p), back.Lookup(p)) {
			t.Errorf("deserialized index disagrees at %v", p)
		}
	}
	if _, err := DeserializeIndex("!!!not base64!!!"); err == nil {
		t.Error("bad serialized index accepted")
	}
}

func TestBBox(t *testing.T) {
	b := EmptyBBox()
	b = b.Union(BBox{0, 0, 1, 1})
	b = b.Union(BBox{5, 5, 6, 6})
	if b.MinLng != 0 || b.MaxLat != 6 {
		t.Errorf("union = %+v", b)
	}
	if !b.ContainsPoint(Point{3, 3}) || b.ContainsPoint(Point{7, 3}) {
		t.Error("ContainsPoint wrong")
	}
	g, _ := ParseWKT("POLYGON ((1 2, 5 2, 5 8, 1 8, 1 2))")
	bb := BoundsOf(g)
	if bb != (BBox{1, 2, 5, 8}) {
		t.Errorf("BoundsOf = %+v", bb)
	}
}

func TestBoundaryPoints(t *testing.T) {
	g, _ := ParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
	for _, p := range []Point{{0, 0}, {5, 0}, {10, 10}, {0, 5}} {
		if !Contains(g, p) {
			t.Errorf("boundary point %v should be contained", p)
		}
	}
}

func BenchmarkStContains(b *testing.B) {
	poly := regularPolygon(50, 50, 20, 500) // a realistic geofence: 500 vertices
	shape := FormatPolygon(poly)
	pt := FormatPoint(Point{50, 50})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := StContains(shape, pt); err != nil || !ok {
			b.Fatal("wrong answer")
		}
	}
}

// QuadTree parameter sweep (design-choice ablation).
func BenchmarkGeoQuadTreeParams(b *testing.B) {
	var wkts []string
	for i := 0; i < 500; i++ {
		c := float64(i%25)*10 + 5
		r := float64(i/25)*10 + 5
		wkts = append(wkts, fmt.Sprintf("POLYGON ((%v %v, %v %v, %v %v, %v %v, %v %v))",
			c-4, r-4, c+4, r-4, c+4, r+4, c-4, r+4, c-4, r-4))
	}
	for _, maxEntries := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("maxEntries=%d", maxEntries), func(b *testing.B) {
			var boxes []BBox
			bounds := EmptyBBox()
			for _, w := range wkts {
				g, err := ParseWKT(w)
				if err != nil {
					b.Fatal(err)
				}
				bb := BoundsOf(g)
				boxes = append(boxes, bb)
				bounds = bounds.Union(bb)
			}
			tree := NewQuadTree(bounds, QuadTreeOptions{MaxEntries: maxEntries})
			for i, bb := range boxes {
				tree.Insert(int32(i), bb)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := Point{Lng: float64(i%250) + 0.5, Lat: float64((i*7)%200) + 0.5}
				tree.Candidates(p, nil)
			}
		})
	}
}

func ExampleFormatPoint() {
	fmt.Println(FormatPoint(Point{Lng: 77.3548351, Lat: 28.6973627}))
	// Output: POINT (77.3548351 28.6973627)
}
