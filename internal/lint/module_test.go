package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtureModule loads one testdata mini-module and builds its callgraph.
func loadFixtureModule(t *testing.T, name string) *Module {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return NewModule(loader.Fset, pkgs, loader.IsLocal)
}

// TestModuleCallgraph checks the conservative callgraph and reachability
// machinery against the artifactmut fixture: methods resolve as roots, edges
// follow both plain calls and calls inside the same function's literals, and
// the parent-pointer paths render caller-first.
func TestModuleCallgraph(t *testing.T) {
	mod := loadFixtureModule(t, "artifactmut")

	run := mod.LookupFunc("internal/pass", "Plan", "Run")
	if run == nil {
		t.Fatal("LookupFunc did not find pass.(*Plan).Run")
	}
	decode := mod.LookupFunc("internal/pass", "", "decodeOrder")
	if decode == nil {
		t.Fatal("LookupFunc did not find pass.decodeOrder")
	}
	if mod.LookupFunc("internal/pass", "", "noSuchFunction") != nil {
		t.Error("LookupFunc invented a function")
	}

	bump := mod.LookupFunc("internal/pass", "", "bump")
	outer := mod.LookupFunc("internal/pass", "", "outer")
	scratch := mod.LookupFunc("internal/pass", "", "scratchMutate")
	if bump == nil || outer == nil || scratch == nil {
		t.Fatal("fixture functions missing from the module index")
	}

	foundBump := false
	for _, e := range mod.Edges(outer) {
		if e.Callee == bump {
			foundBump = true
		}
	}
	if !foundBump {
		t.Error("callgraph misses the outer -> bump edge")
	}
}

// TestModuleReachability checks BFS reachability and path rendering.
func TestModuleReachability(t *testing.T) {
	mod := loadFixtureModule(t, "artifactmut")
	run := mod.LookupFunc("internal/pass", "Plan", "Run")
	bump := mod.LookupFunc("internal/pass", "", "bump")
	scratch := mod.LookupFunc("internal/pass", "", "scratchMutate")
	if run == nil || bump == nil || scratch == nil {
		t.Fatal("fixture functions missing")
	}
	reach := mod.Reachable([]*types.Func{run})
	if !reach.Contains(bump) {
		t.Error("bump should be reachable from Run")
	}
	if reach.Contains(scratch) {
		t.Error("scratchMutate should not be reachable from Run")
	}
	want := "pass.(*Plan).Run -> pass.outer -> pass.bump"
	if got := reach.Path(bump); got != want {
		t.Errorf("Path(bump) = %q, want %q", got, want)
	}
	if got := reach.Path(run); got != "pass.(*Plan).Run" {
		t.Errorf("Path(run) = %q, want the root alone", got)
	}
}

// TestListIgnores checks the suppression inventory: reasons are captured and
// unknown analyzer names are flagged.
func TestListIgnores(t *testing.T) {
	src := `package p

//lint:ignore maporder iteration order provably irrelevant
var a int

//lint:ignore nosuchanalyzer stale suppression
var b int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*Package{{Path: "p", Files: []*ast.File{f}}}
	infos := ListIgnores(fset, pkgs, Analyzers())
	if len(infos) != 2 {
		t.Fatalf("got %d ignores, want 2: %+v", len(infos), infos)
	}
	if infos[0].Analyzer != "maporder" || !infos[0].Known {
		t.Errorf("first ignore = %+v, want known maporder", infos[0])
	}
	if !strings.Contains(infos[0].Reason, "provably irrelevant") {
		t.Errorf("reason not captured: %+v", infos[0])
	}
	if infos[1].Analyzer != "nosuchanalyzer" || infos[1].Known {
		t.Errorf("second ignore = %+v, want unknown", infos[1])
	}
}

// TestAnalyzerRegistration pins the split between per-package and module
// analyzers: exactly one of Run/RunModule must be set on every analyzer, and
// the four interprocedural analyzers all run module-wide.
func TestAnalyzerRegistration(t *testing.T) {
	wantModule := map[string]bool{
		"artifactmut": true, "lockcheck": true, "ctxleak": true, "keycomplete": true,
	}
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		seen[a.Name] = true
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %s must set exactly one of Run / RunModule", a.Name)
		}
		if wantModule[a.Name] && a.RunModule == nil {
			t.Errorf("analyzer %s should be module-scoped", a.Name)
		}
	}
	for name := range wantModule {
		if !seen[name] {
			t.Errorf("analyzer %s is not registered", name)
		}
	}
}
