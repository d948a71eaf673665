package locks

import (
	"github.com/clof-go/clof/internal/lockapi"
)

// CLH is the Craig–Landin–Hagersten queue lock (§2.1): an implicit queue in
// which each thread spins on its *predecessor's* node. On release, the owner
// marks its own node free and recycles its predecessor's node for the next
// acquisition (node stealing). Used e.g. as seL4's big kernel lock. Fair,
// local-spinning.
//
// CLH has no TryAcquire. The obvious load-tail / check-released / CAS-tail
// attempt is unsound: node stealing recycles handles, so between the check
// and the CAS the same handle can come back as tail *re-armed* (locked=1)
// and the stale CAS would enqueue us behind a live owner while reporting
// success (ABA). A correct CLH trylock needs tri-state nodes (Scott's
// CLH-try), which would pollute the hot path this repo measures.
type CLH struct {
	// tail holds the handle of the most recently enqueued node. Initially a
	// released dummy node, so the first acquirer sees an unlocked
	// predecessor.
	tail  lockapi.Cell
	nodes []*clhNode
}

type clhNode struct {
	// locked is 1 from enqueue until the owning thread releases.
	locked lockapi.Cell
}

// clhCtx is the per-thread context. Unlike MCS, the node handle changes over
// time: after a release the thread adopts its predecessor's node.
type clhCtx struct {
	// node is the handle this thread will enqueue next.
	node uint64
	// pred is the predecessor handle recorded during the current hold.
	pred uint64
}

// NewCLH returns an unheld CLH lock.
func NewCLH() *CLH {
	l := &CLH{nodes: make([]*clhNode, 1, 8)} // slot 0 = nil
	// Dummy node representing "lock free".
	l.nodes = append(l.nodes, &clhNode{})
	l.tail.Init(1)
	return l
}

// NewCtx implements lockapi.Lock: allocates this thread's initial node.
// Only safe during single-threaded setup.
func (l *CLH) NewCtx() lockapi.Ctx {
	l.nodes = append(l.nodes, &clhNode{})
	return &clhCtx{node: uint64(len(l.nodes) - 1)}
}

func (l *CLH) node(h uint64) *clhNode { return l.nodes[h] }

// Acquire implements lockapi.Lock.
func (l *CLH) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	ctx := c.(*clhCtx)
	n := l.node(ctx.node)
	p.Store(&n.locked, 1, lockapi.Relaxed)
	pred := p.Swap(&l.tail, ctx.node, lockapi.AcqRel)
	ctx.pred = pred
	for p.Load(&l.node(pred).locked, lockapi.Acquire) == 1 {
		p.Spin()
	}
}

// Release implements lockapi.Lock: free our node and adopt the
// predecessor's. Thread-oblivious as long as the same Ctx is used.
func (l *CLH) Release(p lockapi.Proc, c lockapi.Ctx) {
	ctx := c.(*clhCtx)
	p.Store(&l.node(ctx.node).locked, 0, lockapi.Release)
	ctx.node = ctx.pred
}

// HasWaiters implements lockapi.WaiterDetector: with the lock held, the
// tail still naming our own node means nobody enqueued behind us (same
// spirit as the paper's MCS next-pointer and Ticketlock counter checks).
func (l *CLH) HasWaiters(p lockapi.Proc, c lockapi.Ctx) bool {
	return p.Load(&l.tail, lockapi.Relaxed) != c.(*clhCtx).node
}

var (
	_ lockapi.Lock           = (*CLH)(nil)
	_ lockapi.WaiterDetector = (*CLH)(nil)
)
