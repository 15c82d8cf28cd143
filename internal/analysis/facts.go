package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Facts is the cross-package fact store: body-derived properties of every
// loaded function, computed in one pre-pass before any analyzer runs, so the
// concurrency and lifecycle analyzers can reason interprocedurally without a
// whole-program SSA build. Facts are keyed by the function's fully qualified
// name (types.Func.FullName) rather than object identity: a package's
// dependencies are type-checked from export data, so the *types.Func a
// caller resolves is a different object from the one the defining package's
// source produced — the printed name is the stable join key between the two.
//
// Three function facts are computed:
//
//   - unstoppable: the body contains an infinite for-loop that no statement
//     can exit (no return, no break binding to it, no goto, no panic/exit).
//     goleak reports `go pkg.Fn()` when Fn carries this fact.
//   - blockingChan: the body performs a blocking channel operation (send,
//     receive, range over a channel, or select without default) outside any
//     nested function literal. chanmisuse reports calls to such functions
//     made while a mutex is held — the interprocedural extension of
//     lockheld's direct-operation check.
//   - returnsCloser: the body hands its caller an open io.Closer obtained
//     from a known opener (os.Open and friends) without closing it —
//     ownership transfers to the caller, so closeleak treats calls to the
//     function like calls to the opener itself.
//
// Alongside the function facts, the store aggregates every obs metric
// registration site (Registry.Counter/Gauge/Histogram/GaugeFunc with a
// constant name) across the loaded packages, which is what lets obshygiene
// detect name collisions between packages, and — when a package main is among
// the loaded packages — the reached fact: which functions and packages some
// main can reach (reachability.go).
type Facts struct {
	unstoppable   map[string]token.Position
	blockingChan  map[string]token.Position
	returnsCloser map[string]bool

	// obsRegs maps a metric name to every registration site seen across the
	// loaded packages.
	obsRegs map[string][]obsReg

	// reach is the reached fact (see reachability.go): nil when no package
	// main is among the loaded packages.
	reach *reachFacts
}

// obsReg is one metric registration site.
type obsReg struct {
	kind string // "counter", "gauge", "histogram", "gaugefunc"
	pos  token.Position
	pkg  string
}

// funcKey returns the stable cross-package identity of a function: its fully
// qualified name, identical whether the *types.Func came from source
// type-checking or from export data.
func funcKey(fn *types.Func) string { return fn.FullName() }

// ComputeFacts runs the fact pre-pass over every package.
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		unstoppable:   map[string]token.Position{},
		blockingChan:  map[string]token.Position{},
		returnsCloser: map[string]bool{},
		obsRegs:       map[string][]obsReg{},
		reach:         computeReached(pkgs),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := funcKey(fn)
				if pos := unstoppableLoopPos(fd.Body); pos.IsValid() {
					f.unstoppable[key] = pkg.Fset.Position(pos)
				}
				if pos := blockingChanOpPos(pkg.Info, fd.Body); pos.IsValid() {
					f.blockingChan[key] = pkg.Fset.Position(pos)
				}
				if returnsOpenCloser(pkg.Info, fd.Body) {
					f.returnsCloser[key] = true
				}
			}
			f.collectObsRegs(pkg, file)
		}
	}
	return f
}

// Unstoppable reports whether fn's body carries the unstoppable-loop fact,
// returning the loop position.
func (f *Facts) Unstoppable(fn *types.Func) (token.Position, bool) {
	if f == nil || fn == nil {
		return token.Position{}, false
	}
	pos, ok := f.unstoppable[funcKey(fn)]
	return pos, ok
}

// BlockingChan reports whether fn's body performs a blocking channel
// operation, returning its position.
func (f *Facts) BlockingChan(fn *types.Func) (token.Position, bool) {
	if f == nil || fn == nil {
		return token.Position{}, false
	}
	pos, ok := f.blockingChan[funcKey(fn)]
	return pos, ok
}

// ReturnsCloser reports whether fn hands its caller an open closer.
func (f *Facts) ReturnsCloser(fn *types.Func) bool {
	return f != nil && fn != nil && f.returnsCloser[funcKey(fn)]
}

// ---------------------------------------------------------------------------
// Unstoppable loops.

// unstoppableLoopPos returns the position of an infinite for-loop in body
// that no statement can exit, or NoPos. Nested function literals are skipped:
// they run on other goroutines (or later) and are separate roots.
func unstoppableLoopPos(body *ast.BlockStmt) token.Pos {
	var found token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if t.Cond == nil && !loopCanExit(t) {
				found = t.For
				return false
			}
		}
		return true
	})
	return found
}

// loopCanExit reports whether any statement can terminate the given
// condition-free loop: a return, a break binding to it (unlabeled outside
// nested breakable constructs, or any labeled break — labels are resolved
// conservatively), a goto, or a call that never returns (panic, os.Exit,
// log.Fatal*, runtime.Goexit).
func loopCanExit(loop *ast.ForStmt) bool {
	// Extents of nested constructs that capture an unlabeled break.
	var inner []ast.Node
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			inner = append(inner, n)
		}
		return true
	})
	capturedBreak := func(pos token.Pos) bool {
		for _, c := range inner {
			if c.Pos() <= pos && pos <= c.End() {
				return true
			}
		}
		return false
	}
	exit := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if exit {
			return false
		}
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exit = true
		case *ast.BranchStmt:
			switch t.Tok {
			case token.GOTO:
				exit = true
			case token.BREAK:
				if t.Label != nil || !capturedBreak(t.Pos()) {
					exit = true
				}
			}
		case *ast.CallExpr:
			if isNoReturnCall(t) {
				exit = true
			}
		}
		return true
	})
	return exit
}

// isNoReturnCall matches calls that terminate the goroutine or process, by
// name (the fact pass keeps this type-free so it works identically on every
// package): panic, os.Exit, runtime.Goexit, log.Fatal*, log.Panic*.
func isNoReturnCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "os":
			return fun.Sel.Name == "Exit"
		case "runtime":
			return fun.Sel.Name == "Goexit"
		case "log":
			switch fun.Sel.Name {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Blocking channel operations.

// blockingChanOpPos returns the position of the first blocking channel
// operation in body — a send or receive outside a select, a range over a
// channel, or a select without a default arm — or NoPos. Operations that form
// the comm clause of a select are attributed to the select (blocking only
// when it has no default); nested function literals are separate roots and
// are skipped.
func blockingChanOpPos(info *types.Info, body *ast.BlockStmt) token.Pos {
	// Comm-statement extents: sends/receives inside them belong to a select.
	var comms []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms = append(comms, cc.Comm)
				}
			}
		}
		return true
	})
	inComm := func(pos token.Pos) bool {
		for _, c := range comms {
			if c.Pos() <= pos && pos <= c.End() {
				return true
			}
		}
		return false
	}
	var found token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(t) {
				found = t.Select
				return false
			}
		case *ast.SendStmt:
			if !inComm(t.Pos()) {
				found = t.Arrow
			}
		case *ast.UnaryExpr:
			if t.Op == token.ARROW && !inComm(t.Pos()) {
				found = t.OpPos
			}
		case *ast.RangeStmt:
			if x := info.TypeOf(t.X); x != nil {
				if _, isChan := x.Underlying().(*types.Chan); isChan {
					found = t.For
				}
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Open-closer transfer.

// stdlibOpeners are package-level functions whose result is an open resource
// the caller owns and must close.
var stdlibOpeners = map[string][]string{
	"os":       {"Open", "OpenFile", "Create", "CreateTemp"},
	"net":      {"Dial", "DialTimeout", "Listen"},
	"net/http": {"Get", "Head", "Post", "PostForm"},
}

// openerMethods are methods that, by name, return an open resource the
// caller owns when one of their results implements io.Closer (fsys.FS.Open,
// SpillManager.OpenRun, http.Client.Do, ...).
var openerMethodNames = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"OpenRun": true, "Do": true, "Get": true, "Post": true, "Head": true,
}

// isStdlibOpener reports whether fn is one of the stdlib opener functions or
// the http.Client request methods.
func isStdlibOpener(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if recv := recvNamed(fn); recv != nil {
		return isNamedType(recv, "net/http", "Client") && openerMethodNames[fn.Name()]
	}
	for _, name := range stdlibOpeners[fn.Pkg().Path()] {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// closerIface is a structural io.Closer (Close() error), built by hand so
// implementation checks need no import of the io package in the target.
var closerIface = func() *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)
	iface := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Close", sig),
	}, nil)
	iface.Complete()
	return iface
}()

// implementsCloser reports whether t (or *t) has a Close() error method.
func implementsCloser(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.Implements(t, closerIface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), closerIface)
	}
	return false
}

// returnsOpenCloser reports whether body returns a value obtained from a
// stdlib opener without closing it — the ownership-transfer pattern closeleak
// must follow through helper functions.
func returnsOpenCloser(info *types.Info, body *ast.BlockStmt) bool {
	// Opener-result objects and whether each is closed in this body.
	opened := map[types.Object]bool{} // obj -> closed
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isStdlibOpener(calleeFunc(info, call)) {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			t := info.TypeOf(id)
			if implementsCloser(t) || isNamedType(t, "net/http", "Response") {
				if obj := objectOf(info, id); obj != nil {
					opened[obj] = false
				}
			}
		}
		return true
	})
	if len(opened) == 0 {
		// Direct transfer: `return os.Open(name)`.
		direct := false
		ast.Inspect(body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isStdlibOpener(calleeFunc(info, call)) {
					direct = true
				}
			}
			return true
		})
		return direct
	}
	// Mark closed objects.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if id, ok := baseIdent(sel.X); ok {
			if obj := objectOf(info, id); obj != nil {
				if _, tracked := opened[obj]; tracked {
					opened[obj] = true
				}
			}
		}
		return true
	})
	transferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := objectOf(info, id); obj != nil {
					if closed, tracked := opened[obj]; tracked && !closed {
						transferred = true
					}
				}
			}
		}
		return true
	})
	return transferred
}

// objectOf resolves an identifier to its object via Uses or Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// baseIdent unwraps selector chains (a.b.c → a) to the leftmost identifier.
func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t, true
		case *ast.SelectorExpr:
			e = t.X
		default:
			return nil, false
		}
	}
}

// ---------------------------------------------------------------------------
// Obs metric registration sites.

// obsRegKind classifies a call as an obs.Registry registration, returning the
// metric kind and the constant name ("" when the name is dynamic).
func obsRegKind(info *types.Info, call *ast.CallExpr) (kind, name string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", ""
	}
	switch {
	case isMethod(fn, "prestolite/internal/obs", "Registry", "Counter"):
		kind = "counter"
	case isMethod(fn, "prestolite/internal/obs", "Registry", "Gauge"):
		kind = "gauge"
	case isMethod(fn, "prestolite/internal/obs", "Registry", "Histogram"):
		kind = "histogram"
	case isMethod(fn, "prestolite/internal/obs", "Registry", "GaugeFunc"):
		kind = "gaugefunc"
	default:
		return "", ""
	}
	if len(call.Args) == 0 {
		return kind, ""
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return kind, constant.StringVal(tv.Value)
	}
	return kind, ""
}

func (f *Facts) collectObsRegs(pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, name := obsRegKind(pkg.Info, call)
		if kind == "" || name == "" {
			return true
		}
		f.obsRegs[name] = append(f.obsRegs[name], obsReg{
			kind: kind,
			pos:  pkg.Fset.Position(call.Pos()),
			pkg:  pkg.Path,
		})
		return true
	})
}
