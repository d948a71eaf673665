package locks

import (
	"github.com/clof-go/clof/internal/lockapi"
)

// QSpin is a simplified Linux-qspinlock (the paper cites it among the ten
// NUMA-oblivious locks verified with VSync [32]): a compact lock word with
// locked and pending bits backed by an MCS queue. The first contender spins
// on the pending bit instead of enqueueing, so light contention never
// touches queue nodes; deeper contention degrades gracefully to MCS
// behavior. Fair beyond the single pending slot.
//
// Lock-word encoding: bit0 = locked, bit1 = pending, bits 2+ = MCS tail
// handle (shifted by tailShift).
type QSpin struct {
	word  lockapi.Cell
	nodes []*qspinNode
}

const (
	qLocked    = 1 << 0
	qPending   = 1 << 1
	qTailShift = 2
)

type qspinNode struct {
	next   lockapi.Cell
	locked lockapi.Cell
}

type qspinCtx struct {
	id uint64
}

// NewQSpin returns an unheld qspinlock.
func NewQSpin() *QSpin {
	return &QSpin{nodes: make([]*qspinNode, 1, 8)} // slot 0 = nil
}

// NewCtx implements lockapi.Lock. Only safe during single-threaded setup.
func (l *QSpin) NewCtx() lockapi.Ctx {
	n := &qspinNode{}
	lockapi.Colocate(&n.next, &n.locked)
	l.nodes = append(l.nodes, n)
	return &qspinCtx{id: uint64(len(l.nodes) - 1)}
}

func (l *QSpin) node(h uint64) *qspinNode { return l.nodes[h] }

// Acquire implements lockapi.Lock.
func (l *QSpin) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	// Uncontended fast path: 0 -> locked.
	if p.CAS(&l.word, 0, qLocked, lockapi.Acquire) {
		return
	}
	// Pending path: if only the owner is present, become the single
	// spinning waiter via the pending bit.
	for {
		v := p.Load(&l.word, lockapi.Relaxed)
		if v == 0 {
			if p.CAS(&l.word, 0, qLocked, lockapi.Acquire) {
				return
			}
			continue
		}
		if v == qLocked { // owner only, no pending, no queue
			if !p.CAS(&l.word, qLocked, qLocked|qPending, lockapi.Acquire) {
				continue
			}
			// Spin until the owner clears the locked bit, then claim it.
			for {
				v = p.Load(&l.word, lockapi.Acquire)
				if v&qLocked == 0 {
					// locked clear; swap pending for locked (tail bits may
					// have appeared meanwhile and must be preserved).
					if p.CAS(&l.word, v, (v&^qPending)|qLocked, lockapi.Acquire) {
						return
					}
					continue
				}
				p.Spin()
			}
		}
		break // pending taken or queue present: enqueue
	}
	l.enqueue(p, c.(*qspinCtx).id)
}

// enqueue is the MCS slow path.
func (l *QSpin) enqueue(p lockapi.Proc, me uint64) {
	n := l.node(me)
	p.Store(&n.next, 0, lockapi.Relaxed)
	p.Store(&n.locked, 1, lockapi.Relaxed)

	// Publish ourselves as the tail (preserving locked/pending bits).
	// Plain CAS-retry loop: a failed CAS means the word just changed, so
	// retry immediately (no Spin — Spin means "wait for a change").
	var prevTail uint64
	for {
		v := p.Load(&l.word, lockapi.Relaxed)
		nv := (v & (qLocked | qPending)) | (me << qTailShift)
		if p.CAS(&l.word, v, nv, lockapi.AcqRel) {
			prevTail = v >> qTailShift
			break
		}
	}
	if prevTail != 0 {
		// Wait for our predecessor to pass queue headship.
		p.Store(&l.node(prevTail).next, me, lockapi.Release)
		for p.Load(&n.locked, lockapi.Acquire) == 1 {
			p.Spin()
		}
	}
	// Queue head: wait for owner AND pending waiter to drain, then take
	// the lock, removing ourselves from the tail if we are last.
	for {
		v := p.Load(&l.word, lockapi.Acquire)
		if v&(qLocked|qPending) != 0 {
			p.Spin()
			continue
		}
		if v>>qTailShift == me {
			// We are the last queued waiter: clear the tail too.
			if p.CAS(&l.word, v, qLocked, lockapi.Acquire) {
				return
			}
			continue
		}
		// More waiters behind us: take the lock, keep the tail, and hand
		// queue headship to our successor.
		if p.CAS(&l.word, v, v|qLocked, lockapi.Acquire) {
			for {
				if succ := p.Load(&n.next, lockapi.Acquire); succ != 0 {
					p.Store(&l.node(succ).locked, 0, lockapi.Release)
					return
				}
				p.Spin()
			}
		}
	}
}

// TryAcquire implements lockapi.TryLocker: the uncontended fast path only
// (word fully zero — no owner, no pending waiter, no queue).
func (l *QSpin) TryAcquire(p lockapi.Proc, _ lockapi.Ctx) bool {
	return p.CAS(&l.word, 0, qLocked, lockapi.Acquire)
}

// Release implements lockapi.Lock: clear the locked bit (pending/queued
// waiters claim it themselves).
func (l *QSpin) Release(p lockapi.Proc, _ lockapi.Ctx) {
	// CAS-retry loop (pending/tail bits may change concurrently); a failed
	// CAS means fresh state is already there, so no Spin.
	for {
		v := p.Load(&l.word, lockapi.Relaxed)
		if p.CAS(&l.word, v, v&^uint64(qLocked), lockapi.Release) {
			return
		}
	}
}

var (
	_ lockapi.Lock      = (*QSpin)(nil)
	_ lockapi.TryLocker = (*QSpin)(nil)
)
