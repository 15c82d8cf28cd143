package execution

import (
	"errors"
	"fmt"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/geo"
	"prestolite/internal/planner"
)

// geoJoinOperator is the QuadTree spatial join (§VI). Build side geofences
// are indexed into a GeoIndex (build_geo_index on the fly); probe rows look
// up candidate shapes via the QuadTree and verify with exact
// point-in-polygon. Like the hash join, output is masked out of both sides'
// columns by the matched (probe row, build row) pairs. It cannot spill: the
// build side is charged to the query pool with hard reservations.
type geoJoinOperator struct {
	node  *planner.GeoJoin
	left  Operator
	right Operator
	mem   *opMem

	built  bool
	index  *geo.GeoIndex
	shapes []int         // the build row of each indexed shape
	build  []block.Block // the build side's columns, concatenated
}

func newGeoJoinOperator(node *planner.GeoJoin, left, right Operator, mem *opMem) *geoJoinOperator {
	return &geoJoinOperator{node: node, left: left, right: right, mem: mem}
}

func (o *geoJoinOperator) buildIndex() error {
	parts := make([][]block.Block, len(o.node.Right.Outputs()))
	var wkts []string
	rows := 0
	for {
		p, err := o.right.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := o.mem.hardReserve(int64(p.SizeBytes())); err != nil {
			return err
		}
		for c, b := range p.Blocks {
			parts[c] = append(parts[c], b)
		}
		for row := 0; row < p.Count(); row++ {
			v := p.Blocks[o.node.ShapeChan].Value(row)
			if v == nil {
				continue
			}
			wkts = append(wkts, v.(string))
			o.shapes = append(o.shapes, rows+row)
		}
		rows += p.Count()
	}
	for _, ps := range parts {
		o.build = append(o.build, block.Concat(ps))
	}
	idx, err := geo.BuildIndex(wkts)
	if err != nil {
		return fmt.Errorf("execution: building geo index: %w", err)
	}
	o.index = idx
	return nil
}

func (o *geoJoinOperator) Next() (*block.Page, error) {
	if !o.built {
		if err := o.buildIndex(); err != nil {
			return nil, err
		}
		o.built = true
	}
	for {
		p, err := o.left.Next()
		if err != nil {
			return nil, err
		}
		lngB, err := expr.Eval(o.node.Lng, p)
		if err != nil {
			return nil, err
		}
		latB, err := expr.Eval(o.node.Lat, p)
		if err != nil {
			return nil, err
		}
		lngB, latB = block.Unwrap(lngB), block.Unwrap(latB)
		var probeSel, buildSel []int
		for row := 0; row < p.Count(); row++ {
			lv, av := lngB.Value(row), latB.Value(row)
			if lv == nil || av == nil {
				continue
			}
			for _, shape := range o.index.Lookup(geo.Point{Lng: toF64(lv), Lat: toF64(av)}) {
				probeSel = append(probeSel, row)
				buildSel = append(buildSel, o.shapes[shape])
			}
		}
		if len(probeSel) == 0 {
			continue
		}
		blocks := make([]block.Block, 0, len(p.Blocks)+len(o.build))
		for _, b := range p.Blocks {
			blocks = append(blocks, b.Mask(probeSel))
		}
		for _, b := range o.build {
			blocks = append(blocks, b.Mask(buildSel))
		}
		return &block.Page{Blocks: blocks, N: len(probeSel)}, nil
	}
}

func toF64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	panic(fmt.Sprintf("execution: not numeric: %T", v))
}

func (o *geoJoinOperator) Close() error {
	o.mem.releaseAll()
	return errors.Join(o.left.Close(), o.right.Close())
}
