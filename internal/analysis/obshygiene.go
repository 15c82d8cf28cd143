package analysis

import (
	"go/ast"
	"go/types"
)

// ObsHygiene flags observability wiring that silently lies. The gateway
// routes on /v1/stats snapshots and the chaos suites assert on counters, so
// a metric that is registered but never updated reads as "this subsystem is
// healthy and idle" forever, and a name collision makes one metric's value
// vanish under another's. Four rules:
//
//  1. A Counter/Gauge/Histogram registration whose handle is discarded — the
//     metric appears in snapshots but can never move.
//  2. A handle bound to a variable or struct field that no code ever updates
//     (no Inc/Add/Observe on it anywhere in the package; any escape of
//     the handle silences the rule).
//  3. obs.Counter/Gauge/Histogram constructed directly (composite literal or
//     new) outside internal/obs — the value bypasses the registry and never
//     appears in a snapshot.
//  4. Name collisions: a name registered as both a gauge and a gauge-func
//     anywhere in the tree (via the cross-package registration facts —
//     Snapshot writes gauge-funcs last, silently overwriting), or a
//     gauge-func registered at multiple sites against the same registry
//     object (Registry.GaugeFunc overwrites; only the last registration
//     survives). Sites on different registries — the coordinator and each
//     worker publishing the same name on their own /v1/stats — are the
//     intended per-component pattern and are not flagged.
var ObsHygiene = &Analyzer{
	Name: "obshygiene",
	Doc:  "flags obs metrics that are registered but never updated, constructed outside a registry, or registered under colliding names",
	Run:  runObsHygiene,
}

const obsPkgPath = "prestolite/internal/obs"

var obsUpdateMethods = map[string]bool{
	"Inc": true, "Add": true, "Observe": true,
}

// obsHandle is one registration bound to an object (var or field).
type obsHandle struct {
	kind, name string
	call       *ast.CallExpr
	updated    bool
	escaped    bool
}

func runObsHygiene(pass *Pass) {
	// The obs package constructs its own primitives; everything here is
	// about how other packages wire into it.
	if pass.Pkg.Path() == obsPkgPath {
		return
	}
	handles := map[types.Object]*obsHandle{}
	// defIdents are the identifiers that ARE the registration binding; the
	// use scan must not classify them as uses.
	defIdents := map[*ast.Ident]bool{}
	type localReg struct {
		kind, name string
		call       *ast.CallExpr
		recv       types.Object // the registry expression's object, if resolvable
	}
	var regs []localReg
	fileParents := map[*ast.File]map[ast.Node]ast.Node{}
	for _, file := range pass.Files {
		parents := parentMap(file)
		fileParents[file] = parents
		ast.Inspect(file, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.CompositeLit:
				if k := obsMetricType(pass.Info.TypeOf(t)); k != "" {
					pass.Reportf(t.Pos(), "obs.%s constructed outside a Registry: it bypasses the registry and never appears in a /v1/stats snapshot — use Registry.%s(name)", k, k)
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok && id.Name == "new" && len(t.Args) == 1 {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						if k := obsMetricType(pass.Info.TypeOf(t.Args[0])); k != "" {
							pass.Reportf(t.Pos(), "obs.%s constructed outside a Registry: it bypasses the registry and never appears in a /v1/stats snapshot — use Registry.%s(name)", k, k)
						}
					}
				}
				kind, name := obsRegKind(pass.Info, t)
				if kind == "" {
					return true
				}
				if name != "" {
					regs = append(regs, localReg{kind, name, t, obsRecvObj(pass, t)})
				}
				if kind == "gaugefunc" {
					return true // self-updating: snapshot calls the closure
				}
				switch p := parents[t].(type) {
				case *ast.ExprStmt:
					pass.Reportf(t.Pos(), "%s %q is registered but its handle is discarded: the metric exists in snapshots but can never move", kind, obsDisplayName(name))
				case *ast.AssignStmt:
					for i, rhs := range p.Rhs {
						if ast.Unparen(rhs) == t && i < len(p.Lhs) {
							bindObsHandle(pass, handles, defIdents, p.Lhs[i], kind, name, t)
						}
					}
				case *ast.KeyValueExpr:
					if key, ok := p.Key.(*ast.Ident); ok && ast.Unparen(p.Value) == t {
						if obj := pass.Info.Uses[key]; obj != nil {
							handles[obj] = &obsHandle{kind: kind, name: name, call: t}
							defIdents[key] = true
						}
					}
				case *ast.ValueSpec:
					for i, v := range p.Values {
						if ast.Unparen(v) == t && i < len(p.Names) {
							if obj := pass.Info.Defs[p.Names[i]]; obj != nil {
								handles[obj] = &obsHandle{kind: kind, name: name, call: t}
								defIdents[p.Names[i]] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	if len(handles) > 0 {
		for _, file := range pass.Files {
			parents := fileParents[file]
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || defIdents[id] {
					return true
				}
				h := handles[objectOf(pass.Info, id)]
				if h == nil {
					return true
				}
				switch classifyObsUse(parents, id) {
				case obsUseUpdate:
					h.updated = true
				case obsUseEscape:
					h.escaped = true
				}
				return true
			})
		}
		for _, h := range handles {
			if !h.updated && !h.escaped {
				pass.Reportf(h.call.Pos(), "%s %q is registered and bound but never updated: it reads 0 forever in snapshots — update it or drop the registration", h.kind, obsDisplayName(h.name))
			}
		}
	}
	for _, r := range regs {
		var gauges, gaugefuncs int
		for _, s := range pass.Facts.obsRegs[r.name] {
			switch s.kind {
			case "gauge":
				gauges++
			case "gaugefunc":
				gaugefuncs++
			}
		}
		switch r.kind {
		case "gauge":
			if gaugefuncs > 0 {
				pass.Reportf(r.call.Pos(), "metric name %q is registered as both a gauge and a gauge-func: Snapshot writes gauge-funcs last, so this gauge's value is silently overwritten", r.name)
			}
		case "gaugefunc":
			if gauges > 0 {
				pass.Reportf(r.call.Pos(), "metric name %q is registered as both a gauge and a gauge-func: Snapshot writes gauge-funcs last, silently overwriting the gauge", r.name)
			}
			// Duplicate registration is only a collision when both sites hit
			// the same registry object; the same name on per-component
			// registries is how the fleet publishes comparable stats.
			if r.recv != nil {
				dups := 0
				for _, o := range regs {
					if o.kind == "gaugefunc" && o.name == r.name && o.recv == r.recv {
						dups++
					}
				}
				if dups > 1 {
					pass.Reportf(r.call.Pos(), "gauge-func %q is registered at %d sites on the same registry: Registry.GaugeFunc overwrites, so only the last registration survives", r.name, dups)
				}
			}
		}
	}
}

// obsRecvObj resolves the registry expression a registration call is made
// on (reg.GaugeFunc → reg's object, c.obs.GaugeFunc → the obs field), or
// nil when it is not a plain variable or field.
func obsRecvObj(pass *Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return objectOf(pass.Info, x)
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[x]; ok {
			return s.Obj()
		}
	}
	return nil
}

func obsDisplayName(name string) string {
	if name == "" {
		return "(dynamic name)"
	}
	return name
}

func bindObsHandle(pass *Pass, handles map[types.Object]*obsHandle, defIdents map[*ast.Ident]bool, lhs ast.Expr, kind, name string, call *ast.CallExpr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			pass.Reportf(call.Pos(), "%s %q is registered but its handle is discarded: the metric exists in snapshots but can never move", kind, obsDisplayName(name))
			return
		}
		if obj := objectOf(pass.Info, l); obj != nil {
			handles[obj] = &obsHandle{kind: kind, name: name, call: call}
			defIdents[l] = true
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[l]; ok {
			handles[sel.Obj()] = &obsHandle{kind: kind, name: name, call: call}
			defIdents[l.Sel] = true
		}
	}
}

type obsUse int

const (
	obsUseRead obsUse = iota
	obsUseUpdate
	obsUseEscape
)

// classifyObsUse decides what one mention of a bound handle does: an
// Inc/Add/Observe call updates it, other method calls (Load, Snapshot)
// merely read it, and anything else — argument, return, reassignment —
// escapes the analyzer's view and is assumed to update.
func classifyObsUse(parents map[ast.Node]ast.Node, id *ast.Ident) obsUse {
	var cur ast.Node = id
	if sel, ok := parents[id].(*ast.SelectorExpr); ok && sel.Sel == id {
		cur = sel
	}
	if m, ok := parents[cur].(*ast.SelectorExpr); ok && m.X == cur {
		if call, ok := parents[m].(*ast.CallExpr); ok && call.Fun == m {
			if obsUpdateMethods[m.Sel.Name] {
				return obsUseUpdate
			}
			return obsUseRead
		}
	}
	switch p := parents[cur].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == cur {
				return obsUseRead // overwritten, not consulted
			}
		}
		return obsUseEscape
	case *ast.BinaryExpr, *ast.IfStmt:
		return obsUseRead // nil checks
	case *ast.Field:
		return obsUseRead // the struct-field declaration itself, not a use
	}
	return obsUseEscape
}

// obsMetricType returns the obs metric type name of t (through one pointer),
// or "".
func obsMetricType(t types.Type) string {
	for _, name := range []string{"Counter", "Gauge", "Histogram"} {
		if isNamedType(t, obsPkgPath, name) {
			return name
		}
	}
	return ""
}
