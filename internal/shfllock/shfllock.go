// Package shfllock implements a ShflLock-style shuffling lock after Kashyap
// et al. (SOSP'19), one of the paper's baselines. ShflLock decouples the
// lock word from the waiting queue: a test-and-set word is the actual lock,
// a queue orders the waiters, and "shuffling" reorders the queue so waiters
// on the owner's NUMA node run back to back.
//
// Implementation notes (documented simplifications, DESIGN.md §1):
//
//   - In the original, a waiter near the head becomes the "shuffler" and
//     relinks the queue in place. We realize the same reordering with the
//     head-owned secondary-queue technique (as in CNA): bypassed remote
//     waiters park on a side list and are spliced back periodically. The
//     observable policy — group NUMA-local waiters, bounded bypass — is the
//     same; only the data-structure choreography differs.
//   - Lock stealing (the TAS fast path) is attempted only when the queue is
//     empty, approximating the original's bounded stealing policy.
//
// Like CNA, ShflLock knows only the NUMA level (paper Table 1), so it leaves
// cache-group and package locality unexploited.
package shfllock

import (
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// FlushPeriod bounds NUMA-preferential handovers between FIFO flushes.
const FlushPeriod = 256

type node struct {
	next lockapi.Cell
	// spin: 0 = waiting for queue-head role, 1 = head (may take the lock).
	spin lockapi.Cell
	numa lockapi.Cell
}

// Lock is a shuffling lock. It implements lockapi.Lock; Proc.ID() must be
// the caller's CPU number.
type Lock struct {
	mach *topo.Machine
	// glock is the test-and-set word actually protecting the critical
	// section.
	glock lockapi.Cell
	// tail is the waiter-queue tail.
	tail lockapi.Cell
	// secHead/secTail: bypassed remote waiters (head-owned, like CNA).
	secHead   lockapi.Cell
	secTail   lockapi.Cell
	handovers lockapi.Cell
	nodes     []*node
}

// New returns a ShflLock for the given machine. Head-owned secondary-queue
// state shares one cache line; glock and tail each get their own.
func New(m *topo.Machine) *Lock {
	l := &Lock{mach: m, nodes: make([]*node, 1, 8)}
	lockapi.Colocate(&l.secHead, &l.secTail, &l.handovers)
	return l
}

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
	// Fast path: steal the TAS word when nobody queues.
	if p.Load(&l.tail, lockapi.Relaxed) == 0 && //lint:order relaxed-ok fast-path peek; the CAS provides Acquire on success
		p.Load(&l.glock, lockapi.Relaxed) == 0 &&
		p.CAS(&l.glock, 0, 1, lockapi.Acquire) {
		return
	}

	me := c.(*ctxT).id
	n := l.node(me)
	p.Store(&n.next, 0, lockapi.Relaxed)
	p.Store(&n.spin, 0, lockapi.Relaxed)
	p.Store(&n.numa, uint64(l.mach.CohortOf(p.ID(), topo.NUMA)), lockapi.Relaxed)
	pred := p.Swap(&l.tail, me, lockapi.AcqRel)
	if pred != 0 {
		p.Store(&l.node(pred).next, me, lockapi.Release)
		for p.Load(&n.spin, lockapi.Acquire) == 0 {
			p.Spin()
		}
	}

	// We are the queue head: wait for the TAS word, then pass the head
	// role to the next waiter (shuffled NUMA-locally) before entering.
	for {
		if p.Load(&l.glock, lockapi.Relaxed) == 0 && //lint:order relaxed-ok TTAS peek; the CAS provides Acquire on the winning entry
			p.CAS(&l.glock, 0, 1, lockapi.Acquire) {
			break
		}
		p.Spin()
	}
	l.dequeueAndPassHead(p, me)
}

// dequeueAndPassHead removes our node from the queue and grants the head
// role to the next waiter, preferring one on our NUMA node (shuffling).
func (l *Lock) dequeueAndPassHead(p lockapi.Proc, me uint64) {
	n := l.node(me)
	flush := p.Add(&l.handovers, 1, lockapi.Relaxed)%FlushPeriod == 0

	succ := p.Load(&n.next, lockapi.Acquire)
	if succ == 0 {
		secHead := p.Load(&l.secHead, lockapi.Relaxed)
		if secHead == 0 {
			if p.CAS(&l.tail, me, 0, lockapi.Release) {
				return
			}
		} else {
			secTail := p.Load(&l.secTail, lockapi.Relaxed)
			if p.CAS(&l.tail, me, secTail, lockapi.Release) {
				p.Store(&l.secHead, 0, lockapi.Relaxed)
				p.Store(&l.secTail, 0, lockapi.Relaxed)
				l.passHead(p, secHead)
				return
			}
		}
		for {
			if succ = p.Load(&n.next, lockapi.Acquire); succ != 0 {
				break
			}
			p.Spin()
		}
	}

	secHead := p.Load(&l.secHead, lockapi.Relaxed)
	if flush && secHead != 0 {
		l.spliceSecondaryBefore(p, succ)
		l.passHead(p, secHead)
		return
	}

	myNuma := p.Load(&n.numa, lockapi.Relaxed)
	local, prefixHead, prefixTail := l.findLocal(p, succ, myNuma)
	if local != 0 {
		if prefixHead != 0 {
			l.appendSecondary(p, prefixHead, prefixTail)
		}
		l.passHead(p, local)
		return
	}
	if secHead != 0 {
		l.spliceSecondaryBefore(p, succ)
		l.passHead(p, secHead)
		return
	}
	l.passHead(p, succ)
}

func (l *Lock) passHead(p lockapi.Proc, h uint64) {
	p.Store(&l.node(h).spin, 1, lockapi.Release)
}

func (l *Lock) findLocal(p lockapi.Proc, from, numa uint64) (local, prefixHead, prefixTail uint64) {
	cur := from
	var prev uint64
	for cur != 0 {
		//lint:order relaxed-ok numa hint was published by the Release link store and read after the Acquire next load
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

func (l *Lock) appendSecondary(p lockapi.Proc, head, tail uint64) {
	p.Store(&l.node(tail).next, 0, lockapi.Relaxed)
	//lint:order relaxed-ok secondary queue is queue-head-private; the splice's Release link publishes it
	if p.Load(&l.secHead, lockapi.Relaxed) == 0 {
		p.Store(&l.secHead, head, lockapi.Relaxed)
	} else {
		oldTail := p.Load(&l.secTail, lockapi.Relaxed)
		p.Store(&l.node(oldTail).next, head, lockapi.Relaxed)
	}
	p.Store(&l.secTail, tail, lockapi.Relaxed)
}

func (l *Lock) spliceSecondaryBefore(p lockapi.Proc, succ uint64) {
	secTail := p.Load(&l.secTail, lockapi.Relaxed)
	p.Store(&l.node(secTail).next, succ, lockapi.Release)
	p.Store(&l.secHead, 0, lockapi.Relaxed)
	p.Store(&l.secTail, 0, lockapi.Relaxed)
}

// TryAcquire implements lockapi.TryLocker: the bounded-stealing fast path —
// grab the TAS word only when no waiter queues (stealing from a queued
// waiter would break the bounded-bypass policy). Never enqueues, so failure
// leaves no residual state.
func (l *Lock) TryAcquire(p lockapi.Proc, _ lockapi.Ctx) bool {
	//lint:order relaxed-ok queue peek only; the CAS below provides Acquire on success
	if p.Load(&l.tail, lockapi.Relaxed) != 0 {
		return false
	}
	return p.CAS(&l.glock, 0, 1, lockapi.Acquire)
}

// Release implements lockapi.Lock: drop the TAS word; the queue-head waiter
// (already selected) grabs it.
func (l *Lock) Release(p lockapi.Proc, _ lockapi.Ctx) {
	p.Store(&l.glock, 0, lockapi.Release)
}

var (
	_ lockapi.Lock      = (*Lock)(nil)
	_ lockapi.TryLocker = (*Lock)(nil)
)
