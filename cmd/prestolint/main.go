// Command prestolint runs the project's static-analysis suite
// (internal/analysis) over the module: machine-checked concurrency, context,
// hot-path and reachability invariants that gate every PR via `make lint`.
//
// Usage:
//
//	prestolint [-only a,b] [-list] [packages]
//
// Packages default to ./... (reachability judges only what is loaded beside a
// package main, so it needs the whole module). Exit status: 0 clean, 1 findings, 2 load or
// usage error. Findings are suppressed — always with a written reason —
// via `//lint:ignore <analyzer> <reason>` on or directly above the line.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"prestolite/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "prestolint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prestolint:", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	if len(diags) == 0 {
		return
	}
	wd, _ := os.Getwd() // best-effort: fall back to absolute paths
	for _, d := range diags {
		if wd != "" && strings.HasPrefix(d.Pos.Filename, wd+string(os.PathSeparator)) {
			d.Pos.Filename = d.Pos.Filename[len(wd)+1:]
		}
		fmt.Println(d.String())
	}
	fmt.Fprintf(os.Stderr, "prestolint: %d finding(s)\n", len(diags))
	os.Exit(1)
}
