// Package cna implements the Compact NUMA-Aware lock of Dice and Kogan
// (EuroSys'19), one of the paper's baselines. CNA is an MCS variant: the
// releasing owner scans the main queue for the first waiter on its own NUMA
// node, moves the skipped remote waiters onto a secondary queue, and passes
// the lock NUMA-locally; the secondary queue is spliced back periodically so
// remote waiters cannot starve.
//
// Implementation notes (documented simplifications, DESIGN.md §1):
//
//   - The original packs the secondary-queue head into the node's spin word;
//     we keep the secondary queue's head/tail in the lock itself. Both are
//     owner-only state protected by the lock, so behavior is unchanged.
//   - The original flushes the secondary queue pseudo-randomly (p≈1/256);
//     we flush deterministically every FlushPeriod handovers, which
//     preserves long-term fairness and keeps simulations reproducible.
//
// CNA understands exactly two levels — NUMA node and system (paper Table 1):
// it cannot exploit cache groups or packages, which is why CLoF outperforms
// it on deep hierarchies.
package cna

import (
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// FlushPeriod is how many handovers may prefer NUMA-local waiters before the
// secondary queue is flushed FIFO (long-term fairness).
const FlushPeriod = 256

// node is a CNA queue node.
type node struct {
	next lockapi.Cell
	// spin is 0 while waiting, 1 when the lock is granted.
	spin lockapi.Cell
	// numa is the waiter's NUMA node, written by the waiter before
	// enqueueing and read by the scanning owner.
	numa lockapi.Cell
}

// Lock is a CNA lock. It implements lockapi.Lock; Proc.ID() must be the
// caller's CPU number (used to derive its NUMA node).
type Lock struct {
	mach *topo.Machine
	tail lockapi.Cell
	// secHead/secTail hold the secondary queue of bypassed remote waiters.
	// Owner-only state (protected by the lock itself).
	secHead lockapi.Cell
	secTail lockapi.Cell
	// handovers counts releases for the deterministic fairness flush.
	handovers lockapi.Cell
	nodes     []*node // handle table; slot 0 = nil
}

// New returns a CNA lock for the given machine. The owner-only secondary
// queue state shares one cache line; the tail has its own (it is hammered
// by arrivals).
func New(m *topo.Machine) *Lock {
	l := &Lock{mach: m, nodes: make([]*node, 1, 8)}
	lockapi.Colocate(&l.secHead, &l.secTail, &l.handovers)
	return l
}

// ctxT is the per-thread context: its queue-node handle.
type ctxT struct {
	id uint64
}

// NewCtx implements lockapi.Lock. Only safe during single-threaded setup.
func (l *Lock) NewCtx() lockapi.Ctx {
	n := &node{}
	lockapi.Colocate(&n.next, &n.spin, &n.numa) // one queue node = one line
	l.nodes = append(l.nodes, n)
	return &ctxT{id: uint64(len(l.nodes) - 1)}
}

func (l *Lock) node(h uint64) *node { return l.nodes[h] }

// Acquire implements lockapi.Lock.
func (l *Lock) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	me := c.(*ctxT).id
	n := l.node(me)
	p.Store(&n.next, 0, lockapi.Relaxed)
	p.Store(&n.spin, 0, lockapi.Relaxed)
	p.Store(&n.numa, uint64(l.mach.CohortOf(p.ID(), topo.NUMA)), lockapi.Relaxed)
	pred := p.Swap(&l.tail, me, lockapi.AcqRel)
	if pred == 0 {
		return
	}
	p.Store(&l.node(pred).next, me, lockapi.Release)
	for p.Load(&n.spin, lockapi.Acquire) == 0 {
		p.Spin()
	}
}

// TryAcquire implements lockapi.TryLocker: succeed only when the queue is
// empty, exactly the Acquire fast path. A failed CAS published no node, so
// the releaser's scan can never reach an abandoned waiter.
func (l *Lock) TryAcquire(p lockapi.Proc, c lockapi.Ctx) bool {
	me := c.(*ctxT).id
	n := l.node(me)
	p.Store(&n.next, 0, lockapi.Relaxed)
	p.Store(&n.spin, 0, lockapi.Relaxed)
	p.Store(&n.numa, uint64(l.mach.CohortOf(p.ID(), topo.NUMA)), lockapi.Relaxed)
	return p.CAS(&l.tail, 0, me, lockapi.AcqRel)
}

// Release implements lockapi.Lock.
func (l *Lock) Release(p lockapi.Proc, c lockapi.Ctx) {
	me := c.(*ctxT).id
	n := l.node(me)
	//lint:order relaxed-ok handover counter is read and written only by the current holder
	flush := p.Add(&l.handovers, 1, lockapi.Relaxed)%FlushPeriod == 0

	succ := p.Load(&n.next, lockapi.Acquire)
	if succ == 0 {
		secHead := p.Load(&l.secHead, lockapi.Relaxed)
		if secHead == 0 {
			// Truly empty: classic MCS exit.
			if p.CAS(&l.tail, me, 0, lockapi.Release) {
				return
			}
		} else {
			// Main queue empty but remote waiters parked on the secondary
			// queue: promote it to be the main queue.
			secTail := p.Load(&l.secTail, lockapi.Relaxed)
			if p.CAS(&l.tail, me, secTail, lockapi.Release) {
				p.Store(&l.secHead, 0, lockapi.Relaxed) //lint:order relaxed-ok secondary-queue fields are holder-private; the pass() grant store publishes them
				p.Store(&l.secTail, 0, lockapi.Relaxed)
				l.pass(p, secHead)
				return
			}
		}
		// A successor is mid-enqueue; wait for the link.
		for {
			if succ = p.Load(&n.next, lockapi.Acquire); succ != 0 {
				break
			}
			p.Spin()
		}
	}

	secHead := p.Load(&l.secHead, lockapi.Relaxed)
	if flush && secHead != 0 {
		// Fairness flush: splice the secondary queue in front of the main
		// queue and hand over FIFO.
		l.spliceSecondaryBefore(p, succ)
		l.pass(p, secHead)
		return
	}

	// Scan the main queue for the first waiter on our NUMA node, moving the
	// skipped prefix to the secondary queue.
	myNuma := p.Load(&n.numa, lockapi.Relaxed)
	local, prefixHead, prefixTail := l.findLocal(p, succ, myNuma)
	if local != 0 {
		if prefixHead != 0 {
			l.appendSecondary(p, prefixHead, prefixTail)
		}
		l.pass(p, local)
		return
	}
	// No local waiter in the main queue. If the secondary queue has
	// waiters (all remote relative to us, but possibly local to each
	// other), splice it back in front and hand to its head; otherwise hand
	// to the first main-queue waiter.
	if secHead != 0 {
		l.spliceSecondaryBefore(p, succ)
		l.pass(p, secHead)
		return
	}
	l.pass(p, succ)
}

// pass grants the lock to queue node h.
func (l *Lock) pass(p lockapi.Proc, h uint64) {
	p.Store(&l.node(h).spin, 1, lockapi.Release)
}

// findLocal walks the linked main queue from `from` looking for the first
// node on `numa`. It returns that node (or 0) plus the skipped prefix's
// bounds (0,0 when the first waiter already matches). The walk stops at a
// missing link: a waiter mid-enqueue is treated as queue end, which is safe
// (it simply is not bypassed).
func (l *Lock) findLocal(p lockapi.Proc, from, numa uint64) (local, prefixHead, prefixTail uint64) {
	cur := from
	var prev uint64
	for cur != 0 {
		if p.Load(&l.node(cur).numa, lockapi.Relaxed) == numa {
			if prev != 0 {
				return cur, from, prev
			}
			return cur, 0, 0
		}
		prev = cur
		cur = p.Load(&l.node(cur).next, lockapi.Acquire)
	}
	return 0, 0, 0
}

// appendSecondary moves the prefix [head..tail] onto the secondary queue.
// The queue is touched only by the current lock holder, so all the surgery
// below is Relaxed; the eventual grant store (pass) publishes it.
func (l *Lock) appendSecondary(p lockapi.Proc, head, tail uint64) {
	//lint:order relaxed-ok secondary queue is holder-private; the grant store publishes it
	p.Store(&l.node(tail).next, 0, lockapi.Relaxed)
	if p.Load(&l.secHead, lockapi.Relaxed) == 0 {
		//lint:order relaxed-ok secondary queue is holder-private; the grant store publishes it
		p.Store(&l.secHead, head, lockapi.Relaxed)
	} else {
		oldTail := p.Load(&l.secTail, lockapi.Relaxed)
		//lint:order relaxed-ok secondary queue is holder-private; the grant store publishes it
		p.Store(&l.node(oldTail).next, head, lockapi.Relaxed)
	}
	//lint:order relaxed-ok secondary queue is holder-private; the grant store publishes it
	p.Store(&l.secTail, tail, lockapi.Relaxed)
}

// spliceSecondaryBefore links the secondary queue in front of main-queue
// node `succ` and clears it.
func (l *Lock) spliceSecondaryBefore(p lockapi.Proc, succ uint64) {
	secTail := p.Load(&l.secTail, lockapi.Relaxed)
	p.Store(&l.node(secTail).next, succ, lockapi.Release)
	p.Store(&l.secHead, 0, lockapi.Relaxed) //lint:order relaxed-ok secondary-queue fields are holder-private; the grant store publishes them
	p.Store(&l.secTail, 0, lockapi.Relaxed)
}

var (
	_ lockapi.Lock      = (*Lock)(nil)
	_ lockapi.TryLocker = (*Lock)(nil)
)
