// Package orderpolicy enforces the CLoF memory-order contract on lock
// acquire and release paths (paper §3.3/§4.2; Paolillo et al.'s CNA barrier
// bugs are exactly this class):
//
//  1. A Relaxed load must not guard lock entry: on any function reachable
//     from an Acquire/TryAcquire/Lock method, a Load with order Relaxed
//     appearing in a for- or if-condition is flagged. Intentionally relaxed
//     spin polls (whose ordering is provided by a later Acquire CAS) carry
//     an explicit per-site waiver: //lint:order relaxed-ok <reason>.
//  2. A Relaxed write must not appear on an unlock path: on any function
//     reachable from a Release/Unlock method, a Store/CAS/Add/Swap with
//     order Relaxed is flagged — the final store of an unlock must be
//     Release or stronger, and intermediate relaxed bookkeeping writes must
//     be individually justified by a waiver.
//  3. Barrier presence: an acquire root whose reachable code performs
//     ordered operations but none with Acquire semantics, or a release root
//     that writes but never with Release semantics, is flagged at the
//     method declaration ("missing release barrier" — the bug
//     mcheck.BrokenTicketProgram demonstrates dynamically).
//
// Reachability is the static intra-package call graph (interface calls,
// e.g. into component locks of a composition, are outside it: each lock
// package is checked on its own).
package orderpolicy

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/clof-go/clof/internal/analysis"
)

// Analyzer is the orderpolicy analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "orderpolicy",
	Tag:  "order",
	Doc:  "lock acquire paths must order entry with Acquire; unlock paths must publish with Release",
	Run:  run,
}

func isAcquireName(name string) bool {
	return strings.HasPrefix(name, "Acquire") || strings.HasPrefix(name, "TryAcquire") ||
		name == "Lock" || name == "TryLock" || name == "RLock" || name == "TryRLock"
}

func isReleaseName(name string) bool {
	return strings.HasPrefix(name, "Release") || name == "Unlock" || name == "RUnlock"
}

// hasProcParam reports whether the function takes a Proc handle (the
// lockapi.Proc interface or a concrete backend Proc) — the signature marker
// distinguishing lock-protocol methods from arbitrary Lock()/Unlock()
// methods (e.g. sync.Locker shims).
func hasProcParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Proc" {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) {
	info := pass.Pkg.Info

	// Map every function/method declared in this package to its body.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Pkg.Syntax {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// Static intra-package call graph.
	edges := map[*types.Func][]*types.Func{}
	for fn, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cf := analysis.CalleeFunc(info, call); cf != nil {
				if _, local := decls[cf]; local {
					edges[fn] = append(edges[fn], cf)
				}
			}
			return true
		})
	}

	reachable := func(root *types.Func) []*types.Func {
		seen := map[*types.Func]bool{root: true}
		order := []*types.Func{root}
		for i := 0; i < len(order); i++ {
			for _, next := range edges[order[i]] {
				if !seen[next] {
					seen[next] = true
					order = append(order, next)
				}
			}
		}
		return order
	}

	// Classify roots and collect the acquire- and release-reachable sets.
	type root struct {
		fn      *types.Func
		fd      *ast.FuncDecl
		acquire bool
	}
	var roots []root
	acquireSet := map[*types.Func]bool{}
	releaseSet := map[*types.Func]bool{}
	for fn, fd := range decls {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil || !hasProcParam(sig) {
			continue
		}
		switch {
		case isAcquireName(fn.Name()):
			roots = append(roots, root{fn, fd, true})
			for _, r := range reachable(fn) {
				acquireSet[r] = true
			}
		case isReleaseName(fn.Name()):
			roots = append(roots, root{fn, fd, false})
			for _, r := range reachable(fn) {
				releaseSet[r] = true
			}
		}
	}

	// Rule 1: Relaxed loads guarding entry (in for/if conditions) on
	// acquire paths. Rule 2: Relaxed writes on release paths.
	reported := map[token.Pos]bool{}
	for fn, fd := range decls {
		if acquireSet[fn] {
			for _, cond := range conditions(fd.Body) {
				ast.Inspect(cond, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					op, ok := analysis.ClassifyProcOp(info, call)
					if ok && op.IsLoad() && op.Order == "Relaxed" && !reported[call.Pos()] {
						reported[call.Pos()] = true
						pass.Reportf(call.Pos(),
							"Relaxed load guards lock entry in %s; use Acquire or waive with //lint:order relaxed-ok <reason>",
							fn.Name())
					}
					return true
				})
			}
		}
		if releaseSet[fn] {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				op, ok := analysis.ClassifyProcOp(info, call)
				if ok && op.IsWrite() && op.Order == "Relaxed" && !reported[call.Pos()] {
					reported[call.Pos()] = true
					pass.Reportf(call.Pos(),
						"Relaxed %s on unlock path in %s; release-path writes need Release (or //lint:order relaxed-ok <reason>)",
						op.Name, fn.Name())
				}
				return true
			})
		}
	}

	// Rule 3: barrier presence per root.
	for _, r := range roots {
		var ops []analysis.ProcOp
		for _, fn := range reachable(r.fn) {
			fd := decls[fn]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if op, ok := analysis.ClassifyProcOp(info, call); ok {
						ops = append(ops, op)
					}
				}
				return true
			})
		}
		if len(ops) == 0 {
			continue // pure delegator (or no-op lock): nothing to check here
		}
		if r.acquire {
			ok := false
			for _, op := range ops {
				// A non-constant order is treated as satisfying the policy:
				// the site is doing something deliberate we cannot see.
				if op.AcquireOrStronger() || op.Order == "" {
					ok = true
				}
			}
			if !ok {
				pass.Reportf(r.fd.Name.Pos(),
					"%s performs ordered operations but none with Acquire semantics: lock entry is unordered", r.fn.Name())
			}
		} else {
			writes, ok := false, false
			for _, op := range ops {
				if op.IsWrite() || op.Name == "Fence" {
					writes = true
					if op.ReleaseOrStronger() || op.Order == "" {
						ok = true
					}
				}
			}
			if writes && !ok {
				pass.Reportf(r.fd.Name.Pos(),
					"%s writes but never with Release semantics: missing release barrier (critical-section stores may become visible after the unlock)", r.fn.Name())
			}
		}
	}
}

// conditions collects the condition expressions of all for- and if-
// statements in body, excluding nested function literals.
func conditions(body *ast.BlockStmt) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond != nil {
				out = append(out, n.Cond)
			}
		case *ast.IfStmt:
			out = append(out, n.Cond)
		}
		return true
	})
	return out
}
