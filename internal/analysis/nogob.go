package analysis

import (
	"strconv"
	"strings"
)

// NoGob flags every non-test import of encoding/gob. The system's documents
// travel in its own binary codec (internal/frame): gob re-sends and
// re-compiles type descriptors with every encoder and decoder a request
// builds, and its decoder "is not designed to be hardened against
// adversarial inputs" (its own documentation), while every byte the system
// reads from another process is one. An importer that stays carries a
// //lint:ignore naming the ROADMAP item that removes it.
var NoGob = &Analyzer{
	Name: "nogob",
	Doc:  "flags non-test imports of encoding/gob: documents travel in the binary codec of internal/frame, which is bounded on hostile input and compiles nothing per request",
	Run:  runNoGob,
}

func runNoGob(pass *Pass) {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, imp := range file.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "encoding/gob" {
				pass.Reportf(imp.Pos(), "encoding/gob imported: write the document with internal/frame's codec, which is bounded on hostile input and compiles no type descriptors per request")
			}
		}
	}
}
