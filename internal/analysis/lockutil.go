// lockutil.go — shared type-level helpers for the analyzers: resolving a
// call's callee, recognizing the lockapi package and its Cell type, and
// classifying ordered Proc operations.

package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// CalleeFunc returns the function or method call names directly (an
// identifier or a selector), nil for any other callee: a conversion, a
// builtin, a func value.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsLockapiPackage reports whether p is this repository's lockapi package
// (matched by suffix so fixtures loaded under other module roots work too).
func IsLockapiPackage(p *types.Package) bool {
	return p != nil && (p.Path() == "lockapi" || strings.HasSuffix(p.Path(), "/lockapi"))
}

// ProcOp is one classified ordered memory operation: a call to a method
// named Load/Store/CAS/Add/Swap/Fence whose final parameter is
// lockapi.Order. The receiver may be the lockapi.Proc interface or any
// concrete backend (memsim.Proc, mcheck.Proc) — classification keys on the
// Order parameter, not the receiver.
type ProcOp struct {
	Call *ast.CallExpr
	// Name is the method name: Load, Store, CAS, Add, Swap, or Fence.
	Name string
	// Order is the order constant's name (Relaxed, Acquire, Release,
	// AcqRel, SeqCst), or "" when the order argument is not a constant.
	Order string
}

// IsLoad reports a pure read (no write side).
func (op ProcOp) IsLoad() bool { return op.Name == "Load" }

// IsWrite reports any operation with a store side (Store or an RMW).
func (op ProcOp) IsWrite() bool {
	switch op.Name {
	case "Store", "CAS", "Add", "Swap":
		return true
	}
	return false
}

// AcquireOrStronger reports whether the order includes acquire semantics.
func (op ProcOp) AcquireOrStronger() bool {
	switch op.Order {
	case "Acquire", "AcqRel", "SeqCst":
		return true
	}
	return false
}

// ReleaseOrStronger reports whether the order includes release semantics.
func (op ProcOp) ReleaseOrStronger() bool {
	switch op.Order {
	case "Release", "AcqRel", "SeqCst":
		return true
	}
	return false
}

var procOpNames = map[string]bool{
	"Load": true, "Store": true, "CAS": true, "Add": true, "Swap": true, "Fence": true,
}

// ClassifyProcOp reports whether call is an ordered Proc operation.
func ClassifyProcOp(info *types.Info, call *ast.CallExpr) (ProcOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ProcOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || !procOpNames[fn.Name()] {
		return ProcOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return ProcOp{}, false
	}
	last := sig.Params().At(sig.Params().Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Name() != "Order" || !IsLockapiPackage(named.Obj().Pkg()) {
		return ProcOp{}, false
	}
	op := ProcOp{Call: call, Name: fn.Name()}
	if len(call.Args) > 0 {
		if tv, ok := info.Types[call.Args[len(call.Args)-1]]; ok && tv.Value != nil {
			if v, exact := constant.Int64Val(tv.Value); exact {
				op.Order = orderName(named.Obj().Pkg(), named, v)
			}
		}
	}
	return op, true
}

// orderName finds the Order constant in pkg with value v.
func orderName(pkg *types.Package, orderType *types.Named, v int64) string {
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), orderType) {
			continue
		}
		if cv, exact := constant.Int64Val(c.Val()); exact && cv == v {
			return name
		}
	}
	return ""
}

// IsCellType reports whether t is lockapi.Cell.
func IsCellType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Cell" && IsLockapiPackage(named.Obj().Pkg())
}
