package locks

import (
	"github.com/clof-go/clof/internal/lockapi"
)

// MCS is the Mellor-Crummey–Scott queue lock (§2.1): threads append their
// context node to a global queue and spin on a flag in their own node (local
// spinning), so each handover invalidates exactly one waiter's line. Fair.
//
// Nodes are addressed by integer handles into the lock's node table; handle 0
// is nil. Contexts must be allocated during single-threaded setup.
type MCS struct {
	// tail holds the handle of the last enqueued node (0 = unheld, empty).
	tail lockapi.Cell
	// nodes[1:] are the queue nodes, one per context.
	nodes []*mcsNode
}

type mcsNode struct {
	// next holds the successor's handle (0 = none yet).
	next lockapi.Cell
	// locked is 1 while the owner of this node must wait.
	locked lockapi.Cell
}

// mcsCtx is the per-thread context: the handle of its queue node.
type mcsCtx struct {
	id uint64
}

// NewMCS returns an unheld MCS lock.
func NewMCS() *MCS {
	return &MCS{nodes: make([]*mcsNode, 1, 8)} // slot 0 = nil
}

// NewCtx implements lockapi.Lock: it allocates this thread's queue node.
// Only safe during single-threaded setup.
func (l *MCS) NewCtx() lockapi.Ctx {
	n := &mcsNode{}
	lockapi.Colocate(&n.next, &n.locked) // one queue node = one cache line
	l.nodes = append(l.nodes, n)
	return &mcsCtx{id: uint64(len(l.nodes) - 1)}
}

func (l *MCS) node(h uint64) *mcsNode { return l.nodes[h] }

// Acquire implements lockapi.Lock.
func (l *MCS) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	ctx := c.(*mcsCtx)
	n := l.node(ctx.id)
	p.Store(&n.next, 0, lockapi.Relaxed)
	p.Store(&n.locked, 1, lockapi.Relaxed)
	prev := p.Swap(&l.tail, ctx.id, lockapi.AcqRel)
	if prev == 0 {
		return // queue was empty: lock acquired
	}
	// Publish ourselves to the predecessor, then spin on our own flag.
	p.Store(&l.node(prev).next, ctx.id, lockapi.Release)
	for p.Load(&n.locked, lockapi.Acquire) == 1 {
		p.Spin()
	}
}

// TryAcquire implements lockapi.TryLocker: succeed only when the queue is
// empty. On success our node becomes the tail exactly as on the Acquire fast
// path; on failure nothing was published, so the caller may walk away.
func (l *MCS) TryAcquire(p lockapi.Proc, c lockapi.Ctx) bool {
	ctx := c.(*mcsCtx)
	n := l.node(ctx.id)
	p.Store(&n.next, 0, lockapi.Relaxed)
	if !p.CAS(&l.tail, 0, ctx.id, lockapi.AcqRel) {
		return false
	}
	return true
}

// Release implements lockapi.Lock.
func (l *MCS) Release(p lockapi.Proc, c lockapi.Ctx) {
	ctx := c.(*mcsCtx)
	n := l.node(ctx.id)
	if p.Load(&n.next, lockapi.Acquire) == 0 {
		// No visible successor: try to swing tail back to empty.
		if p.CAS(&l.tail, ctx.id, 0, lockapi.Release) {
			return
		}
		// A successor is mid-enqueue; wait for it to link itself.
		for p.Load(&n.next, lockapi.Acquire) == 0 {
			p.Spin()
		}
	}
	succ := p.Load(&n.next, lockapi.Relaxed)
	p.Store(&l.node(succ).locked, 0, lockapi.Release)
}

// HasWaiters implements lockapi.WaiterDetector: per the paper, for MCS "it
// suffices to check whether the next pointer is set". This may miss a waiter
// that is mid-enqueue, which is safe: CLoF then conservatively releases the
// high lock and the waiter re-acquires it itself.
func (l *MCS) HasWaiters(p lockapi.Proc, c lockapi.Ctx) bool {
	ctx := c.(*mcsCtx)
	return p.Load(&l.node(ctx.id).next, lockapi.Relaxed) != 0
}

var (
	_ lockapi.Lock           = (*MCS)(nil)
	_ lockapi.WaiterDetector = (*MCS)(nil)
	_ lockapi.TryLocker      = (*MCS)(nil)
)
