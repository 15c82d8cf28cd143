package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// LoadDir parses and type-checks the .go files of one directory as a single
// package under the given import path, resolving its imports from export
// data. This is the golden-file test harness entry point: fixture packages
// live under testdata (invisible to the go tool) but still get full type
// information. importPath is what pass.Pkg.Path() will report, letting
// fixtures impersonate hot-path packages for path-scoped analyzers.
func LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	parsed := make([]*ast.File, 0, len(files))
	var imports []string
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil {
				imports = append(imports, path)
			}
		}
	}
	exports, err := cachedExports(imports)
	if err != nil {
		return nil, err
	}
	return typeCheckParsed(fset, exportImporter(fset, exports), importPath, dir, parsed)
}

// cachedExports resolves export files for the given import paths (plus
// transitive deps), memoizing across calls so a test binary shells out to
// `go list` at most once per new package.
var exportCache = struct {
	sync.Mutex
	m map[string]string
}{m: map[string]string{}}

func cachedExports(imports []string) (map[string]string, error) {
	var missing []string
	seen := map[string]bool{}
	exportCache.Lock()
	for _, p := range imports {
		if p == "C" || seen[p] {
			continue
		}
		seen[p] = true
		if _, ok := exportCache.m[p]; !ok {
			missing = append(missing, p)
		}
	}
	exportCache.Unlock()

	// Shell out with the lock released (lockheld's own invariant); a racing
	// goroutine at worst lists the same packages and stores the same paths.
	var listed []*listPackage
	if len(missing) > 0 {
		sort.Strings(missing)
		pkgs, err := goList("", missing)
		if err != nil {
			return nil, err
		}
		listed = pkgs
	}

	exportCache.Lock()
	defer exportCache.Unlock()
	for _, p := range listed {
		if p.Export != "" {
			exportCache.m[p.ImportPath] = p.Export
		}
	}
	out := make(map[string]string, len(exportCache.m))
	for k, v := range exportCache.m {
		out[k] = v
	}
	return out, nil
}

// Format renders diagnostics one per line. With baseNames set, file paths
// are reduced to their base name (used by the golden-file test harness so
// expectations are machine-independent).
func Format(diags []Diagnostic, baseNames bool) string {
	var out []byte
	for _, d := range diags {
		if baseNames {
			d.Pos.Filename = filepath.Base(d.Pos.Filename)
		}
		out = append(out, d.String()...)
		out = append(out, '\n')
	}
	return string(out)
}
