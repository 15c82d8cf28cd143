package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotPackagePaths marks the vectorized kernels and the real-time store that
// runs on them: packages whose loop bodies are per-row or per-page hot paths.
// A fixture package can opt in by using an import path containing one of
// these fragments.
var hotPackagePaths = []string{"internal/execution", "internal/block", "internal/druid", "internal/connectors/druid"}

// HotAlloc flags per-row allocation creep inside the loops of the
// vectorized kernels (internal/execution, internal/block) and of the druid
// store and its connector, whose read path is those kernels over segments.
// The engine's whole performance story is "process a vector per call,
// allocate per batch"; one fmt.Sprintf or []any box inside a row loop turns a
// memory-bandwidth workload into a garbage-collection workload and
// regresses silently until a profile catches it. Inside any for/range body
// of a hot package the analyzer reports:
//
//   - fmt.Sprintf / fmt.Sprint / fmt.Sprintln / fmt.Fprint* — reflective
//     formatting allocates on every row; use strconv appends or typed
//     kernels;
//   - make([]any, ...) / []any{...} — building boxed row vectors per
//     iteration;
//   - boxing: assigning or appending a concrete value into an
//     interface{}-typed slot.
//
// Cold loops that legitimately format (EXPLAIN rendering, error paths) are
// expected to carry a `//lint:ignore hotalloc <reason>` with the reason
// naming why the loop is not per-row.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags fmt formatting, []any allocation and interface boxing inside row loops of the vectorized kernels",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	hot := false
	for _, frag := range hotPackagePaths {
		if strings.Contains(pass.Pkg.Path(), frag) {
			hot = true
		}
	}
	if !hot {
		return
	}
	for _, file := range pass.Files {
		// Collect loop body extents; anything positioned inside one is in a
		// row loop (nested closures included — sort comparators run per
		// comparison).
		var loops []*ast.BlockStmt
		ast.Inspect(file, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.ForStmt:
				loops = append(loops, t.Body)
			case *ast.RangeStmt:
				loops = append(loops, t.Body)
			}
			return true
		})
		inLoop := func(n ast.Node) bool {
			for _, b := range loops {
				if b.Pos() <= n.Pos() && n.End() <= b.End() {
					return true
				}
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.CallExpr:
				if !inLoop(t) {
					return true
				}
				checkHotCall(pass, t)
			case *ast.CompositeLit:
				if !inLoop(t) {
					return true
				}
				if typ := pass.TypeOf(t); typ != nil {
					if sl, ok := typ.Underlying().(*types.Slice); ok && isEmptyInterface(sl.Elem()) {
						pass.Reportf(t.Pos(), "[]any literal in a row loop allocates a boxed vector per iteration; hoist or use typed columns")
					}
				}
			case *ast.AssignStmt:
				if !inLoop(t) {
					return true
				}
				checkBoxingAssign(pass, t)
			}
			return true
		})
	}
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && recvNamed(fn) == nil {
		switch fn.Name() {
		case "Sprintf", "Sprint", "Sprintln", "Fprintf", "Fprint", "Fprintln":
			pass.Reportf(call.Pos(), "fmt.%s in a row loop: reflective formatting allocates per row; use strconv appends or a typed kernel", fn.Name())
			return
		}
	}
	// make([]any, ...): a boxed row vector per iteration.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" && isBuiltin(pass, id) {
		if len(call.Args) > 0 {
			if typ := pass.TypeOf(call.Args[0]); typ != nil {
				if sl, ok := typ.Underlying().(*types.Slice); ok && isEmptyInterface(sl.Elem()) {
					pass.Reportf(call.Pos(), "make([]any, ...) in a row loop allocates a boxed vector per iteration; hoist the scratch slice out of the loop")
				}
			}
		}
		return
	}
	// append(ifaceSlice, concrete): boxes the value on every row.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(pass, id) && !call.Ellipsis.IsValid() {
		if len(call.Args) >= 2 {
			if sl, ok := typeAsSlice(pass.TypeOf(call.Args[0])); ok && isEmptyInterface(sl.Elem()) {
				for _, arg := range call.Args[1:] {
					at := pass.TypeOf(arg)
					if at != nil && !isEmptyInterfaceOrIface(at) {
						pass.Reportf(arg.Pos(), "appending a concrete %s into []any in a row loop boxes per row", at.String())
					}
				}
			}
		}
	}
}

// checkBoxingAssign flags `x = v` where x is interface{}-typed and v is a
// concrete value (an allocation per assignment once v escapes).
func checkBoxingAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := pass.TypeOf(as.Lhs[i])
		rt := pass.TypeOf(as.Rhs[i])
		if lt == nil || rt == nil || !isEmptyInterface(lt) || isEmptyInterfaceOrIface(rt) {
			continue
		}
		if isUntypedNil(pass, as.Rhs[i]) {
			continue
		}
		pass.Reportf(as.Rhs[i].Pos(), "assigning concrete %s into an interface{} slot in a row loop boxes per row", rt.String())
	}
}

func isBuiltin(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok
}

func typeAsSlice(t types.Type) (*types.Slice, bool) {
	if t == nil {
		return nil, false
	}
	sl, ok := t.Underlying().(*types.Slice)
	return sl, ok
}

func isEmptyInterfaceOrIface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isUntypedNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.IsNil()
}
