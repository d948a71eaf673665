// Package loader loads and type-checks Go packages from source using only
// the standard library: go/parser for syntax, go/types for checking, and
// go/importer's source importer for the standard library.
//
// The go tool's own loader (golang.org/x/tools/go/packages) is off-limits —
// this repository takes no dependencies outside the standard library — and
// the stock source importer is module-unaware, so it cannot resolve this
// module's own import paths. The Loader fills exactly that gap: it is given
// an explicit set of (module path, directory) roots, resolves any import
// path under one of them by parsing and checking that directory (memoized,
// recursive), and delegates every other path to the stdlib source importer.
//
// Test files (_test.go) are never loaded: analyzers in this repository
// check production lock code, and fixtures live in testdata directories as
// ordinary non-test files (which the go tool ignores, so deliberately
// defective fixtures cannot break `go build ./...`). Build constraints are
// honoured as in a plain `go build` for the host, so of two files that
// declare the same names under complementary constraints (a `race` and a
// `!race` variant) exactly one is loaded.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module maps a module import path prefix to its root directory.
type Module struct {
	Path string // e.g. "github.com/clof-go/clof"
	Dir  string // absolute or cwd-relative root directory
}

// Package is one loaded, type-checked package. Fset is the Loader's shared
// FileSet; all positions in Syntax resolve against it.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader resolves and memoizes packages across a fixed set of modules.
// It implements types.Importer for its own type-checking passes.
type Loader struct {
	Fset    *token.FileSet
	modules []Module
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// New returns a Loader over the given modules. The first module is the
// primary one: relative patterns passed to Load resolve against its root.
func New(modules ...Module) *Loader {
	fset := token.NewFileSet()
	ms := make([]Module, len(modules))
	for i, m := range modules {
		abs, err := filepath.Abs(m.Dir)
		if err == nil {
			m.Dir = abs
		}
		ms[i] = m
	}
	return &Loader{
		Fset:    fset,
		modules: ms,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// MainModulePath reads the module path from dir/go.mod.
func MainModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", dir)
}

// moduleFor returns the module owning path (longest prefix wins).
func (l *Loader) moduleFor(path string) (Module, bool) {
	var best Module
	found := false
	for _, m := range l.modules {
		if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
			if !found || len(m.Path) > len(best.Path) {
				best, found = m, true
			}
		}
	}
	return best, found
}

// Import implements types.Importer: module-owned paths are loaded from
// source by this Loader; everything else (the standard library) goes to the
// stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if m, ok := l.moduleFor(path); ok {
		pkg, err := l.loadPath(m, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) loadPath(m Module, pkgPath string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, m.Path), "/")
	return l.loadDir(pkgPath, filepath.Join(m.Dir, filepath.FromSlash(rel)))
}

// loadDir parses and type-checks the package in dir under import path
// pkgPath, memoized by pkgPath.
func (l *Loader) loadDir(pkgPath, dir string) (*Package, error) {
	if p, ok := l.pkgs[pkgPath]; ok {
		return p, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", pkgPath, err)
	}
	p := &Package{PkgPath: pkgPath, Dir: dir, Fset: l.Fset, Syntax: files, Types: tpkg, Info: info}
	l.pkgs[pkgPath] = p
	return p, nil
}

// goFilesIn lists the buildable (non-test, non-ignored, constraint-matching)
// Go files in dir, sorted for determinism.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Load resolves patterns against the primary module and returns the loaded
// packages sorted by import path. Supported pattern forms:
//
//	./...        every package under the primary module root
//	./sub/...    every package under that subtree
//	./sub/dir    the single package in that directory
//	import/path  a single package by import path (any registered module)
//
// Directories named testdata or vendor, and directories whose name starts
// with "." or "_", are skipped during ... expansion, matching the go tool.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(l.modules) == 0 {
		return nil, fmt.Errorf("loader has no modules")
	}
	primary := l.modules[0]
	seen := map[string]bool{}
	var out []*Package
	add := func(p *Package) {
		if !seen[p.PkgPath] {
			seen[p.PkgPath] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "..." || pat == "./...":
			pkgs, err := l.loadTree(primary, primary.Dir)
			if err != nil {
				return nil, err
			}
			for _, p := range pkgs {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			dir := filepath.Join(primary.Dir, filepath.FromSlash(strings.TrimPrefix(root, "./")))
			pkgs, err := l.loadTree(primary, dir)
			if err != nil {
				return nil, err
			}
			for _, p := range pkgs {
				add(p)
			}
		case strings.HasPrefix(pat, "./") || pat == ".":
			dir := filepath.Join(primary.Dir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			p, err := l.loadDir(importPathFor(primary, dir), dir)
			if err != nil {
				return nil, err
			}
			add(p)
		default:
			m, ok := l.moduleFor(pat)
			if !ok {
				return nil, fmt.Errorf("pattern %q is outside the registered modules", pat)
			}
			p, err := l.loadPath(m, pat)
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

func importPathFor(m Module, dir string) string {
	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil || rel == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

// loadTree loads every package in the subtree rooted at dir.
func (l *Loader) loadTree(m Module, dir string) ([]*Package, error) {
	var out []*Package
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != dir && (base == "testdata" || base == "vendor" ||
			strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		p, err := l.loadDir(importPathFor(m, path), path)
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	})
	return out, err
}
