package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCases maps each fixture package under testdata to the analyzers run
// over it and the import path it is loaded as. The hotalloc, chanmisuse and
// clockdet fixtures impersonate packages inside the subsystems those
// analyzers are scoped to by import path. The suppress fixture runs the full
// suite to prove a directive silences exactly its target and nothing else.
var goldenCases = []struct {
	dir        string
	importPath string
	analyzers  []string // nil means all
}{
	{"lockheld", "prestolite/internal/analysis/testdata/lockheld", []string{"lockheld"}},
	{"ctxflow", "prestolite/internal/analysis/testdata/ctxflow", []string{"ctxflow"}},
	{"errdrop", "prestolite/internal/analysis/testdata/errdrop", []string{"errdrop"}},
	{"atomicmix", "prestolite/internal/analysis/testdata/atomicmix", []string{"atomicmix"}},
	{"hotalloc", "prestolite/internal/execution/testfixture", []string{"hotalloc"}},
	// druidhot loads under the real-time store's import path, which hotalloc
	// covers since the store's read path moved onto the vector kernels: the
	// fixture is the per-row boxing that path was rid of.
	{"druidhot", "prestolite/internal/druid/hotfixture", []string{"hotalloc"}},
	{"goleak", "prestolite/internal/analysis/testdata/goleak", []string{"goleak"}},
	{"chanmisuse", "prestolite/internal/execution/chanmisusefixture", []string{"chanmisuse"}},
	{"clockdet", "prestolite/internal/cluster/clockfixture", []string{"clockdet"}},
	// cachettl loads under the cache tier's import path, scoped by PR10:
	// TTL expiry read off the wall clock changes hit/miss sequences under
	// chaos replay, so the cache package is held to injected time.
	{"cachettl", "prestolite/internal/cache/ttlfixture", []string{"clockdet"}},
	{"closeleak", "prestolite/internal/analysis/testdata/closeleak", []string{"closeleak"}},
	// nogob has one plain import of encoding/gob and one suppressed with a
	// reason: only the first is a finding.
	{"nogob", "prestolite/internal/analysis/testdata/nogob", []string{"nogob"}},
	{"obshygiene", "prestolite/internal/analysis/testdata/obshygiene", []string{"obshygiene"}},
	// vectorhot loads under the vector kernels' import path, where the
	// hot-loop, clock-determinism and metrics-hygiene rules all apply to
	// one package — the lint surface PR8's kernel code is held to.
	{"vectorhot", "prestolite/internal/execution/vector/vectorhotfixture", []string{"hotalloc", "clockdet", "obshygiene"}},
	// wal loads under the ingest tree's import path, where the durability
	// rules stack: leaked segment handles (closeleak), wall-clock reads in
	// recovery (clockdet) and dropped fsync/commit errors (errdrop) — the
	// lint surface the PR9 WAL code is held to.
	{"wal", "prestolite/internal/ingest/walfixture", []string{"closeleak", "clockdet", "errdrop"}},
	// reachability is a package main, the only kind of fixture the analyzer
	// has roots for; its main_test.go is loaded too, and must reach nothing.
	{"reachability", "prestolite/internal/analysis/testdata/reachability", []string{"reachability"}},
	{"suppress", "prestolite/internal/analysis/testdata/suppress", nil},
}

// TestGolden type-checks each fixture package, runs its analyzers, and
// compares the rendered diagnostics against testdata/<dir>/expected.golden.
// Regenerate expectations with:
//
//	PRESTOLINT_UPDATE=1 go test ./internal/analysis -run TestGolden
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := LoadDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			analyzers := All()
			if tc.analyzers != nil {
				analyzers = analyzers[:0]
				for _, name := range tc.analyzers {
					a := ByName(name)
					if a == nil {
						t.Fatalf("unknown analyzer %q", name)
					}
					analyzers = append(analyzers, a)
				}
			}
			got := Format(Run([]*Package{pkg}, analyzers), true)
			// Positions embedded inside messages ("acquired at ...") carry
			// absolute paths; strip the fixture directory so expectations are
			// machine-independent.
			got = strings.ReplaceAll(got, dir+string(os.PathSeparator), "")

			goldenPath := filepath.Join("testdata", tc.dir, "expected.golden")
			if os.Getenv("PRESTOLINT_UPDATE") != "" {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", goldenPath)
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with PRESTOLINT_UPDATE=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			// Every analyzer-specific fixture must demonstrate at least one
			// true positive, or the golden test proves nothing.
			for _, name := range tc.analyzers {
				if !strings.Contains(got, ": "+name+": ") {
					t.Errorf("fixture %s has no %s finding", tc.dir, name)
				}
			}
		})
	}
}

// TestSuppressGolden pins the two structural guarantees of the suppression
// fixture beyond the golden text: the reasoned directives silenced their
// findings, and the malformed directive surfaced as a "lint" finding.
func TestSuppressGolden(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "prestolite/internal/analysis/testdata/suppress")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, All())
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["lint"] != 1 {
		t.Errorf("want exactly 1 malformed-directive finding, got %d", byAnalyzer["lint"])
	}
	// errdrop fires in malformed() (directive void) and wrongName() (name
	// mismatch) but not in suppressed() or wildcard().
	if byAnalyzer["errdrop"] != 2 {
		t.Errorf("want exactly 2 surviving errdrop findings, got %d", byAnalyzer["errdrop"])
	}
}

// TestReachabilityNeedsAMain: a package no loaded main imports is one finding
// (not one per function), and without a package main among the loaded
// packages there are no roots to judge by, so the analyzer says nothing.
func TestReachabilityNeedsAMain(t *testing.T) {
	load := func(dir string) *Package {
		t.Helper()
		abs, err := filepath.Abs(filepath.Join("testdata", dir))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := LoadDir(abs, "prestolite/internal/analysis/testdata/"+dir)
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}
	orphan := load("reachability_orphan")
	if diags := Run([]*Package{orphan}, []*Analyzer{Reachability}); len(diags) != 0 {
		t.Errorf("no package main loaded, want silence, got:\n%s", Format(diags, true))
	}
	var got []string
	for _, d := range Run([]*Package{load("reachability"), orphan}, []*Analyzer{Reachability}) {
		if filepath.Base(d.Pos.Filename) == "orphan.go" {
			got = append(got, d.Message)
		}
	}
	if len(got) != 1 || !strings.HasPrefix(got[0], "package prestolite/internal/analysis/testdata/reachability_orphan is imported by no binary") {
		t.Errorf("orphan package findings = %q, want the one package finding", got)
	}
}

// TestReachabilitySuppressionsAreFew holds "excuse" to the exception it is
// meant to be: deleting the code or reaching it from a binary come first, so
// the tree may carry at most 20 reachability directives.
func TestReachabilitySuppressionsAreFew(t *testing.T) {
	const max = 20
	var sites []string
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//"+ignorePrefix+" "+Reachability.Name) {
				sites = append(sites, fmt.Sprintf("%s:%d", path, i+1))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) == 0 {
		t.Error("found no reachability directive: the walk is looking in the wrong place")
	}
	if len(sites) > max {
		t.Errorf("%d reachability suppressions, at most %d allowed — delete the code or reach it from a binary instead:\n%s", len(sites), max, strings.Join(sites, "\n"))
	}
}
