// Package seqlock wraps any catalog lock with a seqlock version word,
// giving its critical sections an optimistic (validated) read path
// (DESIGN.md S33, the catalog's `seq:` family).
//
// Writers take the inner lock as usual; the wrapper advances a version cell
// to odd before the critical section's stores and back to even after them.
// Readers never acquire anything: they sample the version with
// lockapi.SeqReader.ReadSeq, read the protected data with plain loads, and
// call ReadValidate — an Acquire fence plus version re-check — to learn
// whether the snapshot is consistent. A failed validation means a writer
// overlapped and every value read since ReadSeq may be torn; callers discard
// and retry, falling back to the pessimistic path after repeated failures
// (internal/store retries up to a fixed 8 attempts, then falls back once).
//
// The wrapper composes with the whole catalog: `seq:tkt` is a Ticketlock
// with an optimistic read path, `seq:clof:tkt-tkt-tkt-tkt` a CLoF
// composition with one. The read-validation fence discipline is verified by
// internal/mcheck's StoreProgram, which model-checks internal/store's own
// optimistic read over seq: locks under SC and WMM with stale loads. Its
// tests also run this ReadValidate on a checker Proc whose Fence does
// nothing, seeding the missing read fence the checker must catch.
package seqlock

import "github.com/clof-go/clof/internal/lockapi"

// Lock is a seqlock wrapper around an inner lock. It implements
// lockapi.SeqReader for optimistic readers and forwards the inner lock's
// trylock (TryLocker, with TryInfo answering for the inner lock). It has
// no HasWaiters: waiter detection is a basic-lock capability
// (lockapi.WaiterDetector). Use Wrap to construct one: Wrap picks the RW
// variant when the inner lock supports shared mode.
type Lock struct {
	inner lockapi.Lock
	seq   lockapi.Cell
}

// Wrap returns inner with a seqlock version word wrapped around its
// exclusive path. If inner supports shared acquisitions (lockapi.RWLocker),
// the returned lock forwards them — shared holders exclude writers but do
// not advance the version, so optimistic readers overlap them freely.
func Wrap(inner lockapi.Lock) lockapi.Lock {
	l := &Lock{inner: inner}
	if rw, ok := inner.(lockapi.RWLocker); ok {
		return &RW{Lock: l, rw: rw}
	}
	return l
}

// NewCtx implements lockapi.Lock; the wrapper itself needs no per-thread
// state, so the context is the inner lock's.
func (l *Lock) NewCtx() lockapi.Ctx { return l.inner.NewCtx() }

// Acquire implements lockapi.Lock: take the inner lock, then advance the
// version to odd. The AcqRel RMW orders the bump after the inner acquire and
// before the critical section's stores, opening the torn window no earlier
// than necessary and no later than the first protected write.
func (l *Lock) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	l.inner.Acquire(p, c)
	p.Add(&l.seq, 1, lockapi.AcqRel)
}

// Release implements lockapi.Lock: advance the version to even — the
// Release RMW publishes every critical-section store before the version
// flips — then release the inner lock.
func (l *Lock) Release(p lockapi.Proc, c lockapi.Ctx) {
	p.Add(&l.seq, 1, lockapi.Release)
	l.inner.Release(p, c)
}

// TryAcquire implements lockapi.TryLocker by delegation; a successful try
// advances the version exactly as Acquire does. Callers must consult
// lockapi.SupportsTry first, as for any conditional TryLocker.
func (l *Lock) TryAcquire(p lockapi.Proc, c lockapi.Ctx) bool {
	tl, ok := l.inner.(lockapi.TryLocker)
	if !ok || !tl.TryAcquire(p, c) {
		return false
	}
	p.Add(&l.seq, 1, lockapi.AcqRel)
	return true
}

// TrySupported implements lockapi.TryInfo: the wrapper supports trylock
// exactly when the inner lock does.
func (l *Lock) TrySupported() bool { return lockapi.SupportsTry(l.inner) }

// ReadSeq implements lockapi.SeqReader: return an even version sample,
// spinning past in-flight writers. The Acquire load orders the caller's
// subsequent data reads after the sample.
func (l *Lock) ReadSeq(p lockapi.Proc) uint64 {
	for {
		s := p.Load(&l.seq, lockapi.Acquire)
		if s&1 == 0 {
			return s
		}
		p.Spin()
	}
}

// ReadValidate implements lockapi.SeqReader: an Acquire fence keeps the
// caller's preceding data loads from sinking past the version re-read, then
// the re-read confirms no writer entered since ReadSeq returned s. The
// re-read itself can be Relaxed: the fence already orders it against the
// data loads, and its value is only compared, never dereferenced.
func (l *Lock) ReadValidate(p lockapi.Proc, s uint64) bool {
	p.Fence(lockapi.Acquire)
	return p.Load(&l.seq, lockapi.Relaxed) == s
}

// RW is the Wrap variant for inner locks that support shared mode: it
// forwards AcquireShared/ReleaseShared to the inner lock unchanged. Shared
// holders do not advance the version — they exclude writers, exactly like
// the optimistic readers they may overlap with, so a validated optimistic
// snapshot taken during a shared hold is still consistent.
type RW struct {
	*Lock
	rw lockapi.RWLocker
}

// AcquireShared implements lockapi.RWLocker by delegation.
func (l *RW) AcquireShared(p lockapi.Proc, c lockapi.Ctx) { l.rw.AcquireShared(p, c) }

// ReleaseShared implements lockapi.RWLocker by delegation.
func (l *RW) ReleaseShared(p lockapi.Proc, c lockapi.Ctx) { l.rw.ReleaseShared(p, c) }

var (
	_ lockapi.Lock      = (*Lock)(nil)
	_ lockapi.TryInfo   = (*Lock)(nil)
	_ lockapi.SeqReader = (*Lock)(nil)
	_ lockapi.RWLocker  = (*RW)(nil)
	_ lockapi.SeqReader = (*RW)(nil)
)
