// Package analysis is a from-scratch, stdlib-only static-analysis framework
// (prestolint) enforcing the engine's concurrency, context and hot-path
// invariants. The paper's central claim is that Presto stays correct and
// fast while coordinator, workers, gateway and caches mutate shared
// query/task state under heavy concurrent traffic; most production incidents
// in that regime come from lock contention, leaked request contexts and
// per-row allocation creep rather than planner bugs. Those invariants are
// machine-checked here instead of reviewed by hand:
//
//   - lockheld:  no blocking call (HTTP, channel ops, time.Sleep, file or
//     network I/O) while a sync.Mutex/RWMutex is held.
//   - ctxflow:   no context.Background()/TODO() inside request paths that
//     already carry a context, and no ctx parameter that is silently
//     dropped while calling context-aware callees.
//   - errdrop:   no discarded error results; `_ = err` needs a trailing
//     reason comment.
//   - atomicmix: no struct field accessed both via sync/atomic and via
//     plain loads/stores.
//   - hotalloc:  no fmt formatting or interface{} boxing allocations inside
//     the per-row loops of the vectorized kernels.
//
// and the concurrency/lifecycle suite added with the ingestion and driver
// machinery (goroutine-heavy code the intra-function analyzers above cannot
// see into):
//
//   - goleak:     no goroutines without a way to terminate (unstoppable
//     loops, wg.Add inside the spawned goroutine).
//   - chanmisuse: no sends/closes on already-closed channels, no calls that
//     block on channels while a mutex is held (interprocedural, via the
//     fact store), no select loops without a cancellation arm in driver
//     hot paths.
//   - clockdet:   no direct time.Now/Sleep/After/... in packages threaded
//     with fault.Clock — direct wall-time breaks CHAOS_SEED replay.
//   - closeleak:  no io.Closer obtained from an opener that neither escapes
//     nor gets closed.
//   - obshygiene: no obs metrics that are registered but never updated,
//     constructed outside a registry, or registered under colliding names.
//
// and two about the shape of the module rather than its behaviour:
//
//   - reachability: no function, method or package that no package main
//     under cmd/ or examples/ reaches — what only tests call is deleted,
//     reached, or (a test fake) excused by name.
//   - nogob: no non-test import of encoding/gob — documents travel in
//     internal/frame's bounded binary codec.
//
// The framework is deliberately free of golang.org/x/tools: packages are
// loaded with `go list -export` plus go/types (see load.go), analyzers are
// plain functions over a Pass, cross-package reasoning goes through a fact
// store computed in a pre-pass (see facts.go), and diagnostics can be
// suppressed — with a written reason — via `//lint:ignore <analyzer>
// <reason>` comments (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:ignore <name> <reason>` suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// encodes (shown by `prestolint -list`).
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Facts is the cross-package fact store computed over every loaded
	// package before any analyzer ran (see facts.go).
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns every registered analyzer, sorted by name. The suite is the
// product surface of prestolint: new invariants are added here.
func All() []*Analyzer {
	all := []*Analyzer{
		AtomicMix, CtxFlow, ErrDrop, HotAlloc, LockHeld,
		ChanMisuse, ClockDet, CloseLeak, GoLeak, ObsHygiene,
		NoGob, Reachability,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// ByName resolves a comma-free analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies each analyzer to each package, drops diagnostics suppressed by
// a well-formed `//lint:ignore` comment, reports malformed suppression
// comments as diagnostics of the pseudo-analyzer "lint", and returns the
// remainder sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := ComputeFacts(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		diags = append(diags, sup.malformed...)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Facts:    facts,
				diags:    &raw,
			}
			a.Run(pass)
		}
		for _, d := range raw {
			if !sup.suppresses(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
