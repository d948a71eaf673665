// Package copylocks flags by-value copies of this repository's lock types:
// any type that transitively contains a lockapi.Cell (every lock in
// internal/catalog's families does). Backends key per-cell metadata — the
// simulator's cache-line state, the model checker's variable identity — off
// the Cell's address, so a copied lock silently splits into two locks that
// stop excluding each other.
//
// `go vet`'s copylocks catches many of these via Cell's embedded noCopy,
// but only where the copied type's method set is visible to vet's
// heuristic; this analyzer checks the Cell-containment property directly
// and uniformly: by-value parameters and results, assignments, and range
// statements. Composite literals are allowed (initialization before first
// use), as are pointers, slices, and maps of lock types.
//
// Intentional copies (there should be none) carry //lint:copylocks
// <verb> <reason> waivers.
package copylocks

import (
	"go/ast"
	"go/types"

	"github.com/clof-go/clof/internal/analysis"
)

// Analyzer is the copylocks analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "copylocks",
	Tag:  "copylocks",
	Doc:  "lock types (containing lockapi.Cell) must not be copied by value",
	Run:  run,
}

func run(pass *analysis.Pass) {
	info := pass.Pkg.Info

	hasCell := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && tv.Type != nil && analysis.HasCell(tv.Type)
	}

	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if hasCell(field.Type) {
				pass.Reportf(field.Type.Pos(),
					"%s passes lock type %s by value (it contains lockapi.Cell); use a pointer",
					what, typeString(info, field.Type))
			}
		}
	}

	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkFieldList(n.Type.Params, "parameter")
				checkFieldList(n.Type.Results, "result")
			case *ast.FuncLit:
				checkFieldList(n.Type.Params, "parameter")
				checkFieldList(n.Type.Results, "result")
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					// Discarding to blank produces no live copy.
					if len(n.Lhs) == len(n.Rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					if copies(info, rhs) {
						pass.Reportf(rhs.Pos(),
							"assignment copies lock value of type %s (contains lockapi.Cell); use a pointer",
							typeString(info, rhs))
					}
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					if copies(info, v) {
						pass.Reportf(v.Pos(),
							"declaration copies lock value of type %s (contains lockapi.Cell); use a pointer",
							typeString(info, v))
					}
				}
			case *ast.RangeStmt:
				// In the `:=` form the loop variables are definitions, so
				// their types live in Defs, not Types.
				for _, v := range []ast.Expr{n.Key, n.Value} {
					if v == nil {
						continue
					}
					t := rangeVarType(info, v)
					if t != nil && analysis.HasCell(t) {
						pass.Reportf(v.Pos(),
							"range copies lock values of type %s (contains lockapi.Cell); range over pointers or indices",
							t.String())
					}
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if copies(info, arg) {
						pass.Reportf(arg.Pos(),
							"call copies lock value of type %s (contains lockapi.Cell); pass a pointer",
							typeString(info, arg))
					}
				}
			}
			return true
		})
	}
}

// copies reports whether evaluating e produces a by-value copy of a
// Cell-containing value that already exists elsewhere. Composite literals
// are fresh values (no prior identity), so they are allowed, and type
// expressions (new(T)'s argument) are no values at all; everything else —
// variables, field selections, dereferences, index expressions, call
// results — is a copy.
func copies(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.IsType() || !analysis.HasCell(tv.Type) {
		return false
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return false
	case *ast.ParenExpr:
		return copies(info, e.X)
	}
	return true
}

// rangeVarType resolves a range key/value variable's type, whether the
// statement defines it (`:=`, type in Defs) or assigns it (type in Types).
// Blank identifiers produce no live copy and resolve to nil.
func rangeVarType(info *types.Info, e ast.Expr) types.Type {
	if id, ok := e.(*ast.Ident); ok {
		if id.Name == "_" {
			return nil
		}
		if obj, ok := info.Defs[id]; ok && obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func typeString(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "?"
}
