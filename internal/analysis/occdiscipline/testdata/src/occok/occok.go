// Package occok is the occdiscipline clean corpus: the repository's real
// optimistic-read shapes, all of which certify their snapshots.
package occok

import "github.com/clof-go/clof/internal/lockapi"

// retryLoop is the canonical consumer shape (store.Session.OptimisticAt):
// attempt, validate, return only on a passing validation, fall back after
// the budget.
func retryLoop(p lockapi.Proc, sq lockapi.SeqReader, c *lockapi.Cell) uint64 {
	for a := 0; a < 4; a++ {
		s := sq.ReadSeq(p)
		v := p.Load(c, lockapi.Relaxed)
		if sq.ReadValidate(p, s) {
			return v
		}
	}
	return fallback(p, c)
}

// collectClosure is the optimistic scan's shape (the kvstore Scan callback
// that store.KVSession.scanShard collects with inside OptimisticAt's fn,
// here inlined): a collection closure with its own `return` runs lexically
// between ReadSeq and ReadValidate, but closure scopes are separate — that
// return does not escape the optimistic attempt.
func collectClosure(p lockapi.Proc, sq lockapi.SeqReader, c *lockapi.Cell, scan func(func(uint64) bool)) []uint64 {
	var buf []uint64
	collect := func(v uint64) bool {
		buf = append(buf, v)
		return true
	}
	s := sq.ReadSeq(p)
	scan(collect)
	if sq.ReadValidate(p, s) {
		return buf
	}
	return nil
}

// validatingReturn delivers the verdict in the return expression itself:
// the return IS the validation, not an escape.
func validatingReturn(p lockapi.Proc, sq lockapi.SeqReader, c *lockapi.Cell) (uint64, bool) {
	s := sq.ReadSeq(p)
	v := p.Load(c, lockapi.Relaxed)
	return v, sq.ReadValidate(p, s)
}

// forwarder is the delegation shape (a wrapper's ReadSeq): a method named
// ReadSeq whose body is the forwarded call, exempt by name.
type forwarder struct{ sq lockapi.SeqReader }

func (f forwarder) ReadSeq(p lockapi.Proc) uint64 { return f.sq.ReadSeq(p) }

func (f forwarder) ReadValidate(p lockapi.Proc, s uint64) bool { return f.sq.ReadValidate(p, s) }

func fallback(p lockapi.Proc, c *lockapi.Cell) uint64 { return p.Load(c, lockapi.Acquire) }
