package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Reachability reports what ships but never runs: a function, method or whole
// package that no `package main` among the loaded packages can reach. The
// engine's surface is meant to equal its traffic — what cmd/* and examples/*
// execute — so code only a _test.go file calls is a cost every refactor pays
// for nothing. The walk is computed once, in the fact pre-pass (the `reached`
// fact), over every loaded package:
//
//   - roots are main and init of each loaded package main, plus init
//     functions and package-level initializers of every package a main
//     imports, transitively;
//   - an edge is any use of a function or method object inside a reached
//     declaration — calls, method values, function values;
//   - a use of an interface method reaches every loaded method of that name
//     (so the result is a lower bound on what is dead, never an overstatement
//     of it);
//   - methods the standard library invokes by reflection or through its own
//     interfaces (String, Error, ServeHTTP, Len/Less/Swap, ...) and marker
//     methods (no parameters, no results, empty body) are reached as soon as
//     their receiver type is named by reached code;
//   - _test.go files are never roots and never report.
//
// A finding is resolved by deleting the code, by reaching it from the binary
// or example that should have used it, or — for a fake a test substitutes or
// a fault it injects — by `//lint:ignore reachability <reason>` on the
// function or type declaration, which makes it (a type: all its methods) a
// root. The pass needs the whole program: it is silent when no package main
// is loaded, so `prestolint ./internal/druid` says nothing about reachability
// while `prestolint -only reachability ./...` judges every package.
var Reachability = &Analyzer{
	Name: "reachability",
	Doc:  "flags functions, methods and packages no binary under cmd/ or examples/ reaches (only tests call them): delete, reach, or excuse a test fake by name",
	Run:  runReachability,
}

func runReachability(pass *Pass) {
	r := pass.Facts.reach
	if r == nil {
		return
	}
	if !r.pkgs[pass.Pkg.Path()] {
		// A package that declares nothing (the module's root doc.go) ships
		// nothing.
		for _, file := range pass.Files {
			if !isTestFile(pass.Fset, file) && declaresSomething(file) {
				pass.Reportf(file.Name.Pos(), "package %s is imported by no binary or example: delete it or mount it where it runs", pass.Pkg.Path())
				return
			}
		}
		return
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn != nil && !r.funcs[funcKey(fn)] {
				pass.Reportf(fd.Name.Pos(), "%s is reached by no binary or example: delete it, reach it, or excuse a test fake with //lint:ignore reachability <reason>", fn.FullName())
			}
		}
	}
}

// stdlibInvoked are method names the standard library calls on a value it is
// handed (fmt, errors, sort, net, net/http, io, encoding/*, flag): no module call
// site names them, so they are reached with their type. A name too common to
// trust alone carries the signature the standard library's interface has.
var stdlibInvoked = map[string]string{
	"String": "", "Error": "", "Unwrap": "", "ServeHTTP": "",
	"Timeout": "", "Temporary": "", // net.Error, as net/url and net/http probe it
	"Read": "", "Write": "", "Close": "",
	"Len": "", "Less": "", "Swap": "",
	"MarshalJSON": "", "UnmarshalJSON": "", "MarshalText": "", "UnmarshalText": "",
	"MarshalBinary": "", "UnmarshalBinary": "", "GobEncode": "", "GobDecode": "",
	"Set": "func(string) error", // flag.Value, not any other setter
	"Is":  "func(error) bool",   // errors.Is
}

// isStdlibInvoked reports whether method fn is one the standard library
// calls by name.
func isStdlibInvoked(fn *types.Func) bool {
	want, ok := stdlibInvoked[fn.Name()]
	if !ok || want == "" {
		return ok
	}
	sig := fn.Type().(*types.Signature)
	shape := func(t *types.Tuple) string {
		var parts []string
		for i := 0; i < t.Len(); i++ {
			parts = append(parts, t.At(i).Type().String())
		}
		return strings.Join(parts, ", ")
	}
	return want == "func("+shape(sig.Params())+") "+shape(sig.Results())
}

// reachFacts is the `reached` fact: the functions (by funcKey) and packages
// (by import path) some loaded package main reaches.
type reachFacts struct {
	funcs map[string]bool
	pkgs  map[string]bool
}

// reachDecl is a declaration the walk may have to descend into, with the
// package whose type information resolves its identifiers.
type reachDecl struct {
	pkg  *Package
	node ast.Node
}

type reachWalk struct {
	facts reachFacts

	funcs    map[string]reachDecl // funcKey -> declaration
	byName   map[string][]string  // method name -> funcKeys, for interface dispatch
	types    map[string]reachDecl // pkgpath.Type -> its TypeSpec
	methods  map[string][]string  // pkgpath.Type -> funcKeys of its methods
	implicit map[string]bool      // funcKeys reached with their type
	typeSeen map[string]bool
	queue    []reachDecl
}

// computeReached walks the call graph from every loaded package main. It
// returns nil when there is none: a sub-tree has no roots to judge it by.
func computeReached(pkgs []*Package) *reachFacts {
	byPath := map[string]*Package{}
	var frontier []*Package
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
		if pkg.Types.Name() == "main" {
			frontier = append(frontier, pkg)
		}
	}
	if len(frontier) == 0 {
		return nil
	}
	w := &reachWalk{
		facts:    reachFacts{funcs: map[string]bool{}, pkgs: map[string]bool{}},
		funcs:    map[string]reachDecl{},
		byName:   map[string][]string{},
		types:    map[string]reachDecl{},
		methods:  map[string][]string{},
		implicit: map[string]bool{},
		typeSeen: map[string]bool{},
	}
	for _, pkg := range pkgs {
		w.index(pkg)
	}
	for len(frontier) > 0 {
		pkg := frontier[0]
		frontier = frontier[1:]
		if w.facts.pkgs[pkg.Path] {
			continue
		}
		w.facts.pkgs[pkg.Path] = true
		w.addRoots(pkg)
		for _, imp := range pkg.Types.Imports() {
			if dep := byPath[imp.Path()]; dep != nil {
				frontier = append(frontier, dep)
			}
		}
	}
	for len(w.queue) > 0 {
		d := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		w.visit(d)
	}
	return &w.facts
}

// index records every non-test function, method and named type pkg declares.
func (w *reachWalk) index(pkg *Package) {
	for _, file := range pkg.Files {
		if isTestFile(pkg.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := funcKey(fn)
				w.funcs[key] = reachDecl{pkg, d}
				recv := recvNamed(fn)
				if recv == nil {
					continue
				}
				w.byName[fn.Name()] = append(w.byName[fn.Name()], key)
				w.methods[typeKey(recv.Obj())] = append(w.methods[typeKey(recv.Obj())], key)
				if isStdlibInvoked(fn) || isMarkerMethod(d) {
					w.implicit[key] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName); tn != nil {
							w.types[typeKey(tn)] = reachDecl{pkg, ts}
						}
					}
				}
			}
		}
	}
}

// addRoots enqueues what runs when a reached package is linked in: main (of a
// package main), init functions, package-level initializers, and every
// declaration excused by a reachability suppression.
func (w *reachWalk) addRoots(pkg *Package) {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	excused := func(pos token.Pos) bool {
		return sup.suppresses(Diagnostic{Pos: pkg.Fset.Position(pos), Analyzer: Reachability.Name})
	}
	for _, file := range pkg.Files {
		if isTestFile(pkg.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				entry := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main")
				if entry || excused(d.Name.Pos()) {
					w.reachFunc(funcKey(fn))
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR || d.Tok == token.CONST {
					w.queue = append(w.queue, reachDecl{pkg, d})
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !excused(ts.Name.Pos()) {
						continue
					}
					if tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName); tn != nil {
						w.reachType(typeKey(tn))
						for _, key := range w.methods[typeKey(tn)] {
							w.reachFunc(key)
						}
					}
				}
			}
		}
	}
}

func (w *reachWalk) reachFunc(key string) {
	if d, ok := w.funcs[key]; ok && !w.facts.funcs[key] {
		w.facts.funcs[key] = true
		w.queue = append(w.queue, d)
	}
}

func (w *reachWalk) reachType(key string) {
	d, ok := w.types[key]
	if !ok || w.typeSeen[key] {
		return
	}
	w.typeSeen[key] = true
	w.queue = append(w.queue, d)
	for _, m := range w.methods[key] {
		if w.implicit[m] {
			w.reachFunc(m)
		}
	}
}

// visit follows every identifier of a reached declaration to the function or
// named type it uses.
func (w *reachWalk) visit(d reachDecl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := d.pkg.Info.Uses[id].(type) {
		case *types.Func:
			fn := obj.Origin()
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				for _, key := range w.byName[fn.Name()] {
					w.reachFunc(key)
				}
				return true
			}
			w.reachFunc(funcKey(fn))
		case *types.TypeName:
			w.reachType(typeKey(obj))
		}
		return true
	})
}

// typeKey is the stable cross-package identity of a named type, as funcKey is
// of a function.
func typeKey(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// isMarkerMethod reports whether d can only exist to satisfy an interface:
// no parameters, no results and an empty body (exprNode, isRowExpression).
func isMarkerMethod(d *ast.FuncDecl) bool {
	return d.Recv != nil && d.Body != nil && len(d.Body.List) == 0 &&
		d.Type.Params.NumFields() == 0 && d.Type.Results.NumFields() == 0
}

func declaresSomething(file *ast.File) bool {
	for _, decl := range file.Decls {
		if gd, ok := decl.(*ast.GenDecl); !ok || gd.Tok != token.IMPORT {
			return true
		}
	}
	return false
}

func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Package).Filename, "_test.go")
}
