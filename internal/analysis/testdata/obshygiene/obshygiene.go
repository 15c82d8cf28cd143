// Package fixture exercises the obshygiene analyzer: discarded registration
// handles, handles bound but never updated, metrics constructed outside a
// registry, gauge/gauge-func name collisions and duplicate gauge-func
// registrations on one registry are reported. An updated counter, an
// escaping handle and the per-component same-name pattern stay silent.
package fixture

import "prestolite/internal/obs"

type metrics struct {
	rows *obs.Counter
}

// badDiscarded registers a counter and throws the handle away.
func badDiscarded(reg *obs.Registry) {
	reg.Counter("queries_failed")
}

// badNeverUpdated binds the handle to a field no code ever updates.
func badNeverUpdated(m *metrics, reg *obs.Registry) {
	m.rows = reg.Counter("rows_seen")
}

// badConstructed builds a gauge by hand: it bypasses the registry and never
// appears in a snapshot.
func badConstructed() *obs.Gauge {
	return &obs.Gauge{}
}

// badCollision registers "depth" as both a gauge and a gauge-func: Snapshot
// writes gauge-funcs last and the gauge's value silently vanishes.
func badCollision(reg *obs.Registry, depth func() float64) {
	g := reg.Gauge("depth")
	g.Add(1)
	reg.GaugeFunc("depth", depth)
}

// badDupGaugeFunc registers the same gauge-func name twice on one registry;
// only the second registration survives.
func badDupGaugeFunc(reg *obs.Registry, a, b func() float64) {
	reg.GaugeFunc("lag", a)
	reg.GaugeFunc("lag", b)
}

// goodUpdated is the normal pattern: register, bind, update.
func goodUpdated(reg *obs.Registry) {
	c := reg.Counter("rows_written")
	c.Inc()
}

// goodEscape hands the handle to a helper, which owns updating it.
func goodEscape(reg *obs.Registry, sink func(*obs.Histogram)) {
	h := reg.Histogram("latency")
	sink(h)
}

// goodPerComponent registers the same name on two different registries —
// the coordinator and a worker each publishing their own view — which is
// the intended fleet pattern, not a collision.
func goodPerComponent(coord, worker *obs.Registry, f func() float64) {
	coord.GaugeFunc("pool_reserved", f)
	worker.GaugeFunc("pool_reserved", f)
}
