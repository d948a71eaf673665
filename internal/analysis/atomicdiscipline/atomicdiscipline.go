// Package atomicdiscipline enforces all-or-nothing atomic access per field:
// a struct field that is accessed atomically anywhere must be accessed
// atomically everywhere. A mixed plain read of an atomically-written field
// is a data race the Go compiler accepts silently and the race detector
// only catches if a test happens to interleave it — the exact bug class the
// weak-memory lock papers document (a plain read can be torn, hoisted, or
// served stale forever).
//
// Two access families are tracked:
//
//   - sync/atomic package functions: a field whose address is passed to
//     atomic.LoadUint64/StoreInt32/AddUint64/... is atomic; every other
//     syntactic use of that field is flagged. (Fields of type
//     atomic.Uint64 et al. are safe by construction — the value is
//     unexported behind methods — and need no analysis.)
//
//   - lockapi ordered operations: a lockapi.Cell field accessed through a
//     Proc (Load/Store/CAS/Add/Swap) is shared state; calling its
//     non-atomic Cell.Init outside single-threaded setup (functions named
//     init/New*/Init*/Reset*/Setup*, or NewCtx — the documented
//     setup-only surfaces) is flagged.
//
// Plain writes inside those setup functions are exempt for the sync/atomic
// family too: constructors initialize before publication.
//
// Files that run on memsim and under mcheck (memsimFiles) may not import
// sync/atomic at all: a host atomic there is shared-memory traffic that the
// simulator does not charge and the checker cannot see. Their shared state
// lives in lockapi.Cells accessed through the Proc.
//
// Intentional exceptions carry //lint:atomic <verb> <reason> waivers.
package atomicdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"github.com/clof-go/clof/internal/analysis"
)

// Analyzer is the atomicdiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "atomicdiscipline",
	Tag:  "atomic",
	Doc:  "fields accessed via sync/atomic or Proc ordered ops must be accessed that way everywhere",
	Run:  run,
}

// isSetupFunc reports whether accesses in fn are single-threaded setup.
func isSetupFunc(name string) bool {
	return name == "init" || name == "NewCtx" ||
		strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Init") ||
		strings.HasPrefix(name, "Reset") || strings.HasPrefix(name, "Setup") ||
		strings.HasPrefix(name, "new") || strings.HasPrefix(name, "setup")
}

// memsimFiles lists, as module-relative paths, the files that run on memsim
// and under mcheck. A file matches when its import path plus base name ends
// in "/" + entry.
var memsimFiles = []string{
	"internal/store/store.go",
}

// onMemsim reports whether file (of package pkgPath) is in memsimFiles.
func onMemsim(pkgPath, file string) bool {
	p := pkgPath + "/" + filepath.Base(file)
	for _, f := range memsimFiles {
		if strings.HasSuffix(p, "/"+f) {
			return true
		}
	}
	return false
}

type access struct {
	pos  token.Pos
	desc string // enclosing function name ("" at package scope)
}

func run(pass *analysis.Pass) {
	info := pass.Pkg.Info

	// fieldOf resolves sel to the field variable it selects, if any.
	fieldOf := func(sel *ast.SelectorExpr) *types.Var {
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return nil
		}
		return s.Obj().(*types.Var)
	}

	atomicUses := map[*types.Var][]access{} // via sync/atomic functions
	plainUses := map[*types.Var][]access{}  // every other syntactic use
	procUses := map[*types.Var]token.Pos{}  // Cell fields used via Proc ops
	initUses := map[*types.Var][]access{}   // Cell.Init outside setup

	for _, f := range pass.Pkg.Syntax {
		if file := pass.Fset.Position(f.Pos()).Filename; onMemsim(pass.Pkg.PkgPath, file) {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"sync/atomic"` {
					pass.Reportf(imp.Pos(),
						"%s runs on memsim and under mcheck, which cannot see host atomics: keep shared state in lockapi.Cells accessed through the Proc",
						shortName(file))
				}
			}
		}
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			fnName := ""
			var body ast.Node = d
			if isFunc {
				if fd.Body == nil {
					continue
				}
				fnName = fd.Name.Name
				body = fd.Body
			}
			// Selector expressions consumed by an atomic/Proc call (the
			// &x.f argument) so the plain-use walk can skip them.
			consumed := map[*ast.SelectorExpr]bool{}
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && len(call.Args) > 0 {
					if sel := addrOperand(call.Args[0]); sel != nil {
						if fv := fieldOf(sel); fv != nil && fv.Pkg() == pass.Pkg.Types {
							consumed[sel] = true
							atomicUses[fv] = append(atomicUses[fv], access{call.Pos(), fnName})
						}
					}
				}
				if op, ok := analysis.ClassifyProcOp(info, call); ok && op.Name != "Fence" && len(call.Args) > 0 {
					if sel := addrOperand(call.Args[0]); sel != nil {
						if fv := fieldOf(sel); fv != nil && fv.Pkg() == pass.Pkg.Types {
							consumed[sel] = true
							procUses[fv] = call.Pos()
						}
					}
				}
				// Cell.Init / Cell.Raw on a field outside setup.
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if m, ok := info.Uses[sel.Sel].(*types.Func); ok &&
						(m.Name() == "Init" || m.Name() == "Raw") && isCellMethod(m) {
						if inner, ok := sel.X.(*ast.SelectorExpr); ok {
							if fv := fieldOf(inner); fv != nil && fv.Pkg() == pass.Pkg.Types {
								consumed[inner] = true
								if !isSetupFunc(fnName) {
									initUses[fv] = append(initUses[fv], access{call.Pos(), fnName})
								}
							}
						}
					}
				}
				return true
			})
			ast.Inspect(body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || consumed[sel] {
					return true
				}
				fv := fieldOf(sel)
				if fv == nil || fv.Pkg() != pass.Pkg.Types {
					return true
				}
				if analysis.IsCellType(fv.Type()) {
					return true // Cell has no plain access surface beyond Init/Raw
				}
				plainUses[fv] = append(plainUses[fv], access{sel.Pos(), fnName})
				return true
			})
		}
	}

	for fv, atomics := range atomicUses {
		first := pass.Fset.Position(atomics[0].pos)
		for _, use := range plainUses[fv] {
			if isSetupFunc(use.desc) {
				continue
			}
			pass.Reportf(use.pos,
				"plain access to field %s, which is accessed via sync/atomic elsewhere (e.g. %s:%d); mixed plain/atomic access is a data race",
				fv.Name(), shortName(first.Filename), first.Line)
		}
	}
	for fv, uses := range initUses {
		procPos, shared := procUses[fv]
		if !shared {
			continue
		}
		first := pass.Fset.Position(procPos)
		for _, use := range uses {
			pass.Reportf(use.pos,
				"Cell.Init/Raw on field %s outside single-threaded setup (%s); the cell is accessed via Proc ops (e.g. %s:%d)",
				fv.Name(), use.desc, shortName(first.Filename), first.Line)
		}
	}
}

// addrOperand returns the selector expression x.f when e is &x.f.
func addrOperand(e ast.Expr) *ast.SelectorExpr {
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	sel, _ := u.X.(*ast.SelectorExpr)
	return sel
}

func isCellMethod(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return analysis.IsCellType(t)
}

func shortName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
