package geo

import (
	"encoding/base64"
	"fmt"
	"sync"

	"prestolite/internal/expr"
	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// This file is the "Presto Geospatial plugin" (§VI.E): scalar functions
// st_point / st_contains, the build_geo_index aggregation that
// serializes geofences into a QuadTree, and geo_contains which probes a
// serialized index. Registration happens in init, the plugin-framework
// equivalent of loading the plugin at server start.

// geometryCache memoizes WKT parsing: geofence strings repeat across rows,
// and parsing should not dominate the st_contains cost model (which the
// paper attributes to vertex count).
var geometryCache sync.Map // wkt string -> *Geometry

// ParseCached parses WKT with memoization.
func ParseCached(wkt string) (*Geometry, error) {
	if g, ok := geometryCache.Load(wkt); ok {
		return g.(*Geometry), nil
	}
	g, err := ParseWKT(wkt)
	if err != nil {
		return nil, err
	}
	geometryCache.Store(wkt, g)
	return g, nil
}

// StContains implements st_contains(shape_wkt, point_wkt).
func StContains(shapeWKT, pointWKT string) (bool, error) {
	shape, err := ParseCached(shapeWKT)
	if err != nil {
		return false, fmt.Errorf("geo: st_contains shape: %w", err)
	}
	pt, err := ParseCached(pointWKT)
	if err != nil {
		return false, fmt.Errorf("geo: st_contains point: %w", err)
	}
	if pt.Point == nil {
		return false, fmt.Errorf("geo: st_contains second argument must be a point")
	}
	return Contains(shape, *pt.Point), nil
}

// SerializeIndex encodes a GeoIndex for transport as a varchar: its shapes'
// WKTs as a frame string list, in base64.
func SerializeIndex(idx *GeoIndex) string {
	wkts := make([]string, len(idx.Shapes))
	for i, g := range idx.Shapes {
		if g.Point != nil {
			wkts[i] = FormatPoint(*g.Point)
		} else {
			wkts[i] = FormatMultiPolygon(g.Polygons)
		}
	}
	return base64.StdEncoding.EncodeToString(frame.AppendStrings(nil, wkts))
}

// DeserializeIndex rebuilds a GeoIndex (including its QuadTree) from the
// serialized form.
func DeserializeIndex(s string) (*GeoIndex, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("geo: deserialize index: %w", err)
	}
	r := frame.NewReader(raw)
	wkts := r.Strs()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("geo: deserialize index: %w", err)
	}
	return BuildIndex(wkts)
}

var indexCache sync.Map // serialized string -> *GeoIndex

func cachedIndex(s string) (*GeoIndex, error) {
	if idx, ok := indexCache.Load(s); ok {
		return idx.(*GeoIndex), nil
	}
	idx, err := DeserializeIndex(s)
	if err != nil {
		return nil, err
	}
	indexCache.Store(s, idx)
	return idx, nil
}

// buildGeoIndexState aggregates WKT geofences into a serialized GeoIndex.
type buildGeoIndexState struct {
	wkts []string
}

func (s *buildGeoIndexState) Add(vals []any) {
	if vals[0] == nil {
		return
	}
	s.wkts = append(s.wkts, vals[0].(string))
}

func (s *buildGeoIndexState) AddIntermediate(v any) {
	if v == nil {
		return
	}
	for _, w := range v.([]any) {
		s.wkts = append(s.wkts, w.(string))
	}
}

func (s *buildGeoIndexState) Intermediate() any {
	out := make([]any, len(s.wkts))
	for i, w := range s.wkts {
		out[i] = w
	}
	return out
}

func (s *buildGeoIndexState) Final() any {
	idx, err := BuildIndex(s.wkts)
	if err != nil {
		// Aggregates cannot fail mid-stream in this engine; surface the
		// problem as NULL (queries over malformed geofences see it
		// immediately in results).
		return nil
	}
	return SerializeIndex(idx)
}

func fixedType(t *types.Type) func([]*types.Type) *types.Type {
	return func([]*types.Type) *types.Type { return t }
}

func init() {
	expr.RegisterScalar(&expr.ScalarFunction{
		Name: "st_point", Params: []*types.Type{types.Double, types.Double},
		ReturnType: fixedType(types.Varchar),
		EvalRow: func(args []any) (any, error) {
			return FormatPoint(Point{Lng: args[0].(float64), Lat: args[1].(float64)}), nil
		},
	})
	expr.RegisterScalar(&expr.ScalarFunction{
		Name: "st_contains", Params: []*types.Type{types.Varchar, types.Varchar},
		ReturnType: fixedType(types.Boolean),
		EvalRow: func(args []any) (any, error) {
			return StContains(args[0].(string), args[1].(string))
		},
	})
	expr.RegisterScalar(&expr.ScalarFunction{
		Name: "geo_contains", Params: []*types.Type{types.Varchar, types.Varchar},
		ReturnType: fixedType(types.Boolean),
		EvalRow: func(args []any) (any, error) {
			idx, err := cachedIndex(args[0].(string))
			if err != nil {
				return nil, err
			}
			pt, err := ParseCached(args[1].(string))
			if err != nil || pt.Point == nil {
				return nil, fmt.Errorf("geo: geo_contains second argument must be a point")
			}
			return len(idx.Lookup(*pt.Point)) > 0, nil
		},
	})
	expr.RegisterAggregate(&expr.AggregateFunction{
		Name: "build_geo_index", Params: []*types.Type{types.Varchar},
		IntermediateType: fixedType(types.NewArray(types.Varchar)),
		FinalType:        fixedType(types.Varchar),
		NewState:         func([]*types.Type) expr.AggState { return &buildGeoIndexState{} },
	})
}
