// clof-lint is the repository's static lock-discipline checker: the static
// half of the paper's GenMC/VSync substitution (internal/mcheck is the
// dynamic half). It loads packages from source — standard library only, no
// network — runs the internal/analysis suite, prints one diagnostic per
// line as
//
//	file:line:col: [analyzer] message
//
// and exits nonzero on findings, so scripts/check.sh can gate on it.
//
// Usage:
//
//	clof-lint [flags] [pattern ...]
//
//	patterns:  ./... (default), ./sub/..., ./sub/dir, or import paths
//	-dir:      module root (default: nearest go.mod above the cwd)
//	-nowaiver: audit mode — report //lint:-waived findings too
//
// The suite is two per-site analyzers: atomicdiscipline and orderpolicy.
// Spin-loop discipline and validate-before-escape are decided by the model
// checker, which runs every such site (internal/mcheck's seeded-mutation
// tests). A lock struct copied by value is go vet's copylocks finding
// (lockapi.Cell embeds a noCopy marker), not clof-lint's. Neither analyzer
// orders locks against each other: lock nesting is verified dynamically by
// mcheck.InductionProgram, the paper's induction step, which checks that
// CLoF's parent-ward climb is deadlock-free. A //lint: waiver that
// suppresses no finding is itself reported (except under -nowaiver).
//
// Exit codes: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/clof-go/clof/internal/analysis"
	"github.com/clof-go/clof/internal/analysis/atomicdiscipline"
	"github.com/clof-go/clof/internal/analysis/loader"
	"github.com/clof-go/clof/internal/analysis/orderpolicy"
)

// all is the clof-lint analyzer suite, in output-label order.
var all = []*analysis.Analyzer{
	atomicdiscipline.Analyzer,
	orderpolicy.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clof-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "module root (default: nearest go.mod above the working directory)")
	nowaiver := fs.Bool("nowaiver", false, "audit mode: report waived findings too")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root := *dir
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "clof-lint:", err)
			return 2
		}
		root, err = findModuleRoot(wd)
		if err != nil {
			fmt.Fprintln(stderr, "clof-lint:", err)
			return 2
		}
	}
	absRoot, err := filepath.Abs(root)
	if err == nil {
		root = absRoot
	}
	modPath, err := loader.MainModulePath(root)
	if err != nil {
		fmt.Fprintln(stderr, "clof-lint:", err)
		return 2
	}

	ld := loader.New(loader.Module{Path: modPath, Dir: root})
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "clof-lint:", err)
		return 2
	}

	var diags []analysis.Diagnostic
	if *nowaiver {
		diags = analysis.Audit(pkgs, all)
	} else {
		diags = analysis.Run(pkgs, all)
	}
	// Print paths relative to the module root: stable across machines and
	// clickable from the repository root.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "clof-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// findModuleRoot walks up from dir to the nearest directory with a go.mod.
func findModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}
