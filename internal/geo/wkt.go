// Package geo implements the geospatial support of §VI: a Well-Known Text
// (WKT) geometry model (points, polygons, multi-polygons), point-in-polygon
// testing, a QuadTree spatial index built on the fly, and the Presto
// geospatial plugin functions (st_point, st_contains, build_geo_index,
// geo_contains).
package geo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a location as (longitude, latitude).
type Point struct {
	Lng float64
	Lat float64
}

// Ring is a closed linear ring: first and last points match.
type Ring []Point

// Polygon is an outer ring with optional holes.
type Polygon struct {
	Outer Ring
	Holes []Ring
}

// MultiPolygon is a collection of polygons; a geofence is "either a polygon
// or a multi-polygon" (§VI.B).
type MultiPolygon []Polygon

// Geometry is any parsed WKT value.
type Geometry struct {
	// Point is set for POINT geometries.
	Point *Point
	// Polygons is set for POLYGON and MULTIPOLYGON geometries.
	Polygons MultiPolygon
}

// ParseWKT parses POINT, POLYGON and MULTIPOLYGON text.
func ParseWKT(s string) (*Geometry, error) {
	p := &wktParser{input: s}
	p.skipSpace()
	keyword := strings.ToUpper(p.ident())
	switch keyword {
	case "POINT":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		pt, err := p.point()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if err := p.end(); err != nil {
			return nil, err
		}
		return &Geometry{Point: &pt}, nil
	case "POLYGON":
		poly, err := p.polygon()
		if err != nil {
			return nil, err
		}
		if err := p.end(); err != nil {
			return nil, err
		}
		return &Geometry{Polygons: MultiPolygon{poly}}, nil
	case "MULTIPOLYGON":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var mp MultiPolygon
		for {
			poly, err := p.polygon()
			if err != nil {
				return nil, err
			}
			mp = append(mp, poly)
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if err := p.end(); err != nil {
			return nil, err
		}
		return &Geometry{Polygons: mp}, nil
	default:
		return nil, fmt.Errorf("geo: unsupported WKT geometry %q", keyword)
	}
}

// FormatPoint renders a point as WKT.
func FormatPoint(p Point) string {
	return "POINT (" + formatFloat(p.Lng) + " " + formatFloat(p.Lat) + ")"
}

// FormatPolygon renders a polygon as WKT.
func FormatPolygon(poly Polygon) string {
	var sb strings.Builder
	sb.WriteString("POLYGON (")
	writeRing(&sb, poly.Outer)
	for _, h := range poly.Holes {
		sb.WriteString(", ")
		writeRing(&sb, h)
	}
	sb.WriteString(")")
	return sb.String()
}

// FormatMultiPolygon renders a multi-polygon as WKT.
func FormatMultiPolygon(mp MultiPolygon) string {
	var sb strings.Builder
	sb.WriteString("MULTIPOLYGON (")
	for i, poly := range mp {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		writeRing(&sb, poly.Outer)
		for _, h := range poly.Holes {
			sb.WriteString(", ")
			writeRing(&sb, h)
		}
		sb.WriteString(")")
	}
	sb.WriteString(")")
	return sb.String()
}

func writeRing(sb *strings.Builder, r Ring) {
	sb.WriteString("(")
	for i, pt := range r {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(formatFloat(pt.Lng))
		sb.WriteString(" ")
		sb.WriteString(formatFloat(pt.Lat))
	}
	sb.WriteString(")")
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

type wktParser struct {
	input string
	pos   int
}

func (p *wktParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n') {
		p.pos++
	}
}

func (p *wktParser) peek() byte {
	if p.pos < len(p.input) {
		return p.input[p.pos]
	}
	return 0
}

func (p *wktParser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("geo: expected %q at %d in %q", string(c), p.pos, truncateWKT(p.input))
	}
	p.pos++
	return nil
}

func (p *wktParser) end() error {
	p.skipSpace()
	if p.pos != len(p.input) {
		return fmt.Errorf("geo: trailing input at %d in %q", p.pos, truncateWKT(p.input))
	}
	return nil
}

func truncateWKT(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}

func (p *wktParser) ident() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
			p.pos++
			continue
		}
		break
	}
	return p.input[start:p.pos]
}

func (p *wktParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		break
	}
	if start == p.pos {
		return 0, fmt.Errorf("geo: expected number at %d in %q", p.pos, truncateWKT(p.input))
	}
	f, err := strconv.ParseFloat(p.input[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("geo: bad number %q: %w", p.input[start:p.pos], err)
	}
	return f, nil
}

func (p *wktParser) point() (Point, error) {
	lng, err := p.number()
	if err != nil {
		return Point{}, err
	}
	lat, err := p.number()
	if err != nil {
		return Point{}, err
	}
	return Point{Lng: lng, Lat: lat}, nil
}

func (p *wktParser) ring() (Ring, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var r Ring
	for {
		pt, err := p.point()
		if err != nil {
			return nil, err
		}
		r = append(r, pt)
		p.skipSpace()
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if len(r) < 4 {
		return nil, fmt.Errorf("geo: ring needs at least 4 points, got %d", len(r))
	}
	if r[0] != r[len(r)-1] {
		return nil, fmt.Errorf("geo: ring is not closed (start %v != end %v)", r[0], r[len(r)-1])
	}
	return r, nil
}

func (p *wktParser) polygon() (Polygon, error) {
	if err := p.expect('('); err != nil {
		return Polygon{}, err
	}
	outer, err := p.ring()
	if err != nil {
		return Polygon{}, err
	}
	poly := Polygon{Outer: outer}
	for {
		p.skipSpace()
		if p.peek() != ',' {
			break
		}
		p.pos++
		hole, err := p.ring()
		if err != nil {
			return Polygon{}, err
		}
		poly.Holes = append(poly.Holes, hole)
	}
	if err := p.expect(')'); err != nil {
		return Polygon{}, err
	}
	return poly, nil
}

// ---------------------------------------------------------------------------
// Point-in-polygon (the st_contains kernel; cost proportional to the number
// of geofence vertices, §VI.C).

// ringContains uses ray casting; boundary points count as inside.
func ringContains(r Ring, p Point) bool {
	inside := false
	n := len(r) - 1 // last point repeats the first
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := r[i], r[j]
		// Boundary check on the segment (pi, pj).
		if onSegment(pi, pj, p) {
			return true
		}
		if (pi.Lat > p.Lat) != (pj.Lat > p.Lat) {
			x := (pj.Lng-pi.Lng)*(p.Lat-pi.Lat)/(pj.Lat-pi.Lat) + pi.Lng
			if p.Lng < x {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

func onSegment(a, b, p Point) bool {
	cross := (b.Lng-a.Lng)*(p.Lat-a.Lat) - (b.Lat-a.Lat)*(p.Lng-a.Lng)
	if math.Abs(cross) > 1e-12 {
		return false
	}
	return p.Lng >= math.Min(a.Lng, b.Lng)-1e-12 && p.Lng <= math.Max(a.Lng, b.Lng)+1e-12 &&
		p.Lat >= math.Min(a.Lat, b.Lat)-1e-12 && p.Lat <= math.Max(a.Lat, b.Lat)+1e-12
}

// PolygonContains reports whether p lies inside poly (outer ring minus holes).
func PolygonContains(poly Polygon, p Point) bool {
	if !ringContains(poly.Outer, p) {
		return false
	}
	for _, h := range poly.Holes {
		if ringContains(h, p) {
			return false
		}
	}
	return true
}

// Contains reports whether the geometry contains the point.
func Contains(g *Geometry, p Point) bool {
	if g.Point != nil {
		return g.Point.Lng == p.Lng && g.Point.Lat == p.Lat
	}
	for _, poly := range g.Polygons {
		if PolygonContains(poly, p) {
			return true
		}
	}
	return false
}
