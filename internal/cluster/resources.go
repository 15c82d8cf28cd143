package cluster

import (
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
)

// ResourceConfig configures the coordinator's resource-management subsystem
// (§XII.C): a process-wide memory pool every query's context is a child of,
// admission-controlled resource groups, spill-to-disk for blocking
// operators, and the last-resort OOM killer. The zero value is what
// NewCoordinator installs: an unlimited pool that still accounts every query,
// no queueing, no spill, no killer.
type ResourceConfig struct {
	// MemoryLimit caps the process-wide pool in bytes. 0 = unlimited.
	MemoryLimit int64
	// SpillDir enables spill-to-disk, rooted at this directory. "" = spill
	// disabled.
	SpillDir string
	// SpillBudget caps the bytes on disk across live spill runs. 0 =
	// unlimited.
	SpillBudget int64
	// OOMKill enables the last rung of the degradation ladder: when the
	// shared pool is exhausted, the query with the largest reservation is
	// killed so the rest can finish.
	OOMKill bool
	// Groups are the admission-control resource groups; queries pick one
	// with the resource_group session property and default to the first.
	// Empty = admission disabled.
	Groups []resource.GroupConfig
}

// coordResources is the live subsystem built from a ResourceConfig.
type coordResources struct {
	pool             *resource.Pool
	spill            *resource.SpillManager
	groups           map[string]*resource.Group
	defaultGroup     *resource.Group
	admissionRejects *obs.Counter
}

// ConfigureResources replaces the coordinator's resource subsystem — the
// memory pool's limit, admission control, spill-to-disk and the OOM killer —
// with one built from cfg; it fails only when cfg.SpillDir cannot be made.
// Call before Start.
func (c *Coordinator) ConfigureResources(cfg ResourceConfig) error {
	res := &coordResources{groups: map[string]*resource.Group{}}
	res.pool = resource.NewPool("coordinator", cfg.MemoryLimit)
	res.pool.SetClock(c.cfg.Clock)
	if cfg.OOMKill {
		res.pool.EnableOOMKiller(c.obs.Counter("oom_kills"))
	}
	if cfg.SpillDir != "" {
		mgr, err := resource.NewSpillManager(cfg.SpillDir, cfg.SpillBudget)
		if err != nil {
			return err
		}
		mgr.SetCounters(c.obs.Counter("spills"), c.obs.Counter("spilled_bytes"))
		res.spill = mgr
	}
	for _, gc := range cfg.Groups {
		g := resource.NewGroup(gc, c.cfg.Clock)
		res.groups[gc.Name] = g
		if res.defaultGroup == nil {
			res.defaultGroup = g
		}
	}
	res.admissionRejects = c.obs.Counter("admission_rejects")
	c.obs.GaugeFunc("pool_reserved_bytes", func() float64 { return float64(res.pool.Reserved()) })
	c.obs.GaugeFunc("queue_depth", func() float64 {
		n := 0
		for _, g := range res.groups {
			n += g.Depth()
		}
		return float64(n)
	})
	// admission_saturated is what the gateway failover polls: 1 means a new
	// submission right now would be rejected with queue-full (HTTP 429).
	c.obs.GaugeFunc("admission_saturated", func() float64 {
		if len(res.groups) == 0 {
			return 0
		}
		for _, g := range res.groups {
			if !g.Saturated() {
				return 0
			}
		}
		return 1
	})
	c.res = res
	return nil
}

// groupFor resolves the session's admission group: the resource_group
// session property when it names a configured group, else the first
// configured group. nil = admission disabled.
func (c *Coordinator) groupFor(session *planner.Session) *resource.Group {
	if name := session.Property("resource_group", ""); name != "" {
		if g, ok := c.res.groups[name]; ok {
			return g
		}
	}
	return c.res.defaultGroup
}

// queryMemoryLimit resolves the per-query memory cap: the query_max_memory
// session property wins, then the group's PerQueryMemory, else uncapped.
func queryMemoryLimit(props planner.ExecProperties, g *resource.Group) int64 {
	if props.MaxMemorySet {
		return props.MaxMemory
	}
	if g != nil {
		return g.Config().PerQueryMemory
	}
	return 0
}
