package loader

import (
	"path/filepath"
	"testing"
)

// repoRoot walks up from the working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; {
		if _, err := MainModulePath(d); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", dir)
		}
		d = parent
	}
}

func TestMainModulePath(t *testing.T) {
	root := repoRoot(t)
	got, err := MainModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	if got != "github.com/clof-go/clof" {
		t.Fatalf("MainModulePath(%s) = %q, want the repository module path", root, got)
	}
	if _, err := MainModulePath(t.TempDir()); err == nil {
		t.Fatal("MainModulePath on a directory without go.mod: want error")
	}
}

func TestLoadPatterns(t *testing.T) {
	root := repoRoot(t)
	modPath, err := MainModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	ld := New(Module{Path: modPath, Dir: root})

	// A single directory pattern loads exactly that package, type-checked.
	pkgs, err := ld.Load("./internal/lockapi")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != modPath+"/internal/lockapi" {
		t.Fatalf("Load(./internal/lockapi) = %+v, want the lockapi package alone", pkgs)
	}
	if pkgs[0].Types == nil || pkgs[0].Types.Scope().Lookup("Cell") == nil {
		t.Fatal("lockapi loaded without a type-checked Cell")
	}

	// Build constraints select files: coro declares Thread once in its
	// iter.Pull file and once in its race-build file, and only the first
	// matches a plain build.
	pkgs, err = ld.Load("./internal/coro")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs[0].Syntax) != 1 || pkgs[0].Types.Scope().Lookup("Thread") == nil {
		t.Fatalf("Load(./internal/coro) parsed %d files, want coro.go alone with Thread", len(pkgs[0].Syntax))
	}

	// A tree pattern loads subpackages but never testdata.
	pkgs, err = ld.Load("./internal/analysis/...")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.PkgPath] = true
		if filepath.Base(filepath.Dir(p.Dir)) == "testdata" || filepath.Base(p.Dir) == "testdata" {
			t.Errorf("tree walk descended into testdata: %s", p.Dir)
		}
	}
	for _, want := range []string{
		modPath + "/internal/analysis",
		modPath + "/internal/analysis/loader",
		modPath + "/internal/analysis/orderpolicy",
	} {
		if !seen[want] {
			t.Errorf("Load(./internal/analysis/...) missing %s; got %v", want, pkgs)
		}
	}
}
