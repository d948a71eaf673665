// Package spinhygiene checks spin-loop discipline on the native substrate
// (the Go-runtime hazard DESIGN.md names: GOMAXPROCS-pinned busy loops
// starve the scheduler, and the paper's locks all spin):
//
//  1. A for-loop whose condition polls shared state — an ordered Proc Load
//     or a sync/atomic load — must back off in its body: Proc.Spin,
//     ExpBackoff.Pause, runtime.Gosched, or time.Sleep. Natively, a poll
//     loop without a yield can deadlock workloads where waiters outnumber
//     GOMAXPROCS.
//  2. The dual hazard (documented on lockapi.Proc.Spin): an optimistic
//     CAS-retry loop — a CAS in the condition whose expected value is a
//     freshly loaded variable, not a constant — must NOT call Spin. There a
//     failed CAS proves the location just changed, and backends that park
//     Spin until the watched line changes (memsim, mcheck) would block on a
//     change that may never come. Lock-style waits (Swap, or CAS against a
//     constant like 0) are the opposite: a failure means "still held", so
//     they are poll loops under rule 1 and MUST back off.
//
// Deliberate exceptions carry //lint:spin <verb> <reason> waivers.
package spinhygiene

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/clof-go/clof/internal/analysis"
)

// Analyzer is the spinhygiene analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spinhygiene",
	Tag:  "spin",
	Doc:  "atomic poll loops must back off (Spin/Pause/Gosched); CAS-retry loops must not call Spin",
	Run:  run,
}

func run(pass *analysis.Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond == nil {
				return true
			}
			polls, retries := condPolls(info, loop.Cond)
			if !polls && !retries {
				return true
			}
			relief := false
			ast.Inspect(loop.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok && analysis.IsSpinRelief(info, call) {
					relief = true
				}
				return true
			})
			switch {
			case retries && relief:
				pass.Reportf(loop.Pos(),
					"CAS-retry loop calls Spin/Pause: a failed RMW proves the location changed, and await-collapsing backends would block (see lockapi.Proc.Spin)")
			case polls && !retries && !relief:
				pass.Reportf(loop.Pos(),
					"busy-wait loop polls an atomic without backing off: call Proc.Spin, ExpBackoff.Pause, or runtime.Gosched in the body (or waive with //lint:spin <verb> <reason>)")
			}
			return true
		})
	}
}

// condPolls classifies the atomic accesses in a loop condition:
// polls = waiting for another thread (loads, waiting-style RMWs);
// retries = an optimistic CAS against a freshly observed value.
func condPolls(info *types.Info, cond ast.Expr) (polls, retries bool) {
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := analysis.ClassifyProcOp(info, call); ok {
			switch op.Name {
			case "Load", "Swap", "Add":
				polls = true
			case "CAS":
				// Proc.CAS(c, old, new, o): a constant old (0, a handle
				// literal) is a lock-style wait; a variable old is an
				// optimistic retry.
				if len(op.Call.Args) >= 2 && isConst(info, op.Call.Args[1]) {
					polls = true
				} else {
					retries = true
				}
			}
			return true
		}
		// sync/atomic: package functions (LoadUint64, CompareAndSwap...)
		// and methods on atomic.Uint64 et al.
		if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
			name := fn.Name()
			switch {
			case strings.HasPrefix(name, "Load"), strings.HasPrefix(name, "Swap"), strings.HasPrefix(name, "Add"):
				polls = true
			case strings.HasPrefix(name, "CompareAndSwap"):
				if args := call.Args; len(args) >= 2 && isConst(info, args[len(args)-2]) {
					polls = true
				} else {
					retries = true
				}
			}
		}
		return true
	})
	return polls, retries
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
