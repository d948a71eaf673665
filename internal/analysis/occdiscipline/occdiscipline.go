// Package occdiscipline checks the optimistic-read (seqlock/OCC) protocol
// statically: every lockapi.SeqReader.ReadSeq snapshot must be validated
// with ReadValidate before it can escape the taking function.
//
// The contract (lockapi/seq.go): any value read between ReadSeq and a
// passing ReadValidate is provisional — a writer may have overlapped, so the
// caller must treat it as garbage until validation certifies it. Two shapes
// violate that:
//
//  1. a ReadSeq with no subsequent ReadValidate in the same function — the
//     snapshot is never certified at all;
//  2. a return statement lexically between a ReadSeq and its first
//     ReadValidate — the provisional (possibly torn) values can leave the
//     function before certification.
//
// The check is lexical and per-function. Nested function literals are
// analyzed as their own scopes: a `return` inside a collection closure
// passed to an unlocked scan (the kvstore Scan callback inside the fn that
// store.KVSession.scanShard hands to Session.OptimisticAt) is not an escape
// of the enclosing optimistic attempt, and a ReadSeq inside a closure must
// find its ReadValidate there. Methods themselves named ReadSeq are exempt
// — they are forwarders (a wrapper's ReadSeq, such as the benchmark's timing
// shim) whose whole body is the delegation. A `return` whose expression contains the ReadValidate
// call ("return sq.ReadValidate(p, s) && ok") counts as the validation, not
// as an escape.
//
// Deliberate exceptions carry //lint:occ <verb> <reason> waivers (e.g. a
// version probe that samples ReadSeq purely to observe the counter, with no
// data reads to certify).
package occdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/clof-go/clof/internal/analysis"
)

// Analyzer is the occdiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "occdiscipline",
	Tag:  "occ",
	Doc:  "ReadSeq snapshots must reach a ReadValidate before any return (optimistic reads must not escape unvalidated)",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				// A method named ReadSeq is a SeqReader forwarder: its body
				// IS the delegation, so the no-validate rule does not apply.
				if fn.Body != nil && fn.Name.Name != "ReadSeq" {
					checkBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, fn.Body)
			}
			return true
		})
	}
}

// eventKind tags the lexical events the discipline is defined over.
type eventKind int

const (
	evReadSeq eventKind = iota
	evValidate
	evReturn
)

type event struct {
	kind eventKind
	pos  token.Pos
}

// checkBody applies the two rules to one function body, treating nested
// function literals as separate scopes (they are visited by run itself).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []event
	var collect func(n ast.Node) bool
	collect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			// A return that itself computes the validation delivers the
			// certified verdict — record it as the validate, not an escape.
			if returnsValidation(pass.Pkg.Info, n) {
				events = append(events, event{evValidate, n.Pos()})
			} else {
				events = append(events, event{evReturn, n.Pos()})
			}
		case *ast.CallExpr:
			switch classifySeqCall(pass.Pkg.Info, n) {
			case "ReadSeq":
				events = append(events, event{evReadSeq, n.Pos()})
			case "ReadValidate":
				events = append(events, event{evValidate, n.Pos()})
			}
		}
		return true
	}
	ast.Inspect(body, collect)

	// events is in lexical order (Inspect is a preorder walk and a node's
	// children follow its position). For each ReadSeq, find the first
	// subsequent ReadValidate and any return in between.
	for i, e := range events {
		if e.kind != evReadSeq {
			continue
		}
		validated, escaped := false, false
		for _, later := range events[i+1:] {
			if later.kind == evValidate {
				validated = true
				break
			}
			if later.kind == evReturn {
				escaped = true
			}
		}
		switch {
		case !validated:
			pass.Reportf(e.pos,
				"optimistic read is never validated: no ReadValidate follows this ReadSeq in the function — the snapshot escapes uncertified (see lockapi.SeqReader)")
		case escaped:
			pass.Reportf(e.pos,
				"optimistic read may escape: return before the snapshot's ReadValidate — values read since ReadSeq are uncertified (see lockapi.SeqReader)")
		}
	}
}

// returnsValidation reports whether a ReadValidate call appears in ret's
// result expressions (outside nested function literals).
func returnsValidation(info *types.Info, ret *ast.ReturnStmt) bool {
	found := false
	for _, r := range ret.Results {
		ast.Inspect(r, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && classifySeqCall(info, call) == "ReadValidate" {
				found = true
			}
			return !found
		})
	}
	return found
}

// classifySeqCall reports whether call is a SeqReader protocol operation:
// a method named ReadSeq(Proc) or ReadValidate(Proc, uint64) whose first
// parameter is lockapi.Proc (matching interface and concrete forwarders
// alike, the way ClassifyProcOp keys on lockapi.Order). Returns the method
// name, or "".
func classifySeqCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	name := fn.Name()
	if name != "ReadSeq" && name != "ReadValidate" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return ""
	}
	first, ok := sig.Params().At(0).Type().(*types.Named)
	if !ok || first.Obj().Name() != "Proc" || !analysis.IsLockapiPackage(first.Obj().Pkg()) {
		return ""
	}
	return name
}
