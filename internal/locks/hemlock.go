package locks

import (
	"github.com/clof-go/clof/internal/lockapi"
)

// hemlockID is the value a releaser writes into its grant field to name the
// lock being passed. The original algorithm uses the lock's address so one
// thread-local context can serve several locks at once; here every context
// belongs to exactly one lock instance (node tables are per-lock), so a
// constant non-zero identity is equivalent — and, unlike a global counter,
// keeps lock construction deterministic, which the model checker's replay
// depends on.
const hemlockID = 1

// Hemlock is Dice & Kogan's compact queue lock (SPAA'21, §2.1 of the CLoF
// paper): an implicit queue like CLH, but the *releaser* writes the lock's
// identity into its own grant field and the successor replies by resetting
// it. Mostly-local spinning with a single word per context.
//
// When ctr is true, the x86-specific Coherence-Traffic-Reduction optimization
// is applied: loads of the grant field become fetch_add(0) and stores become
// compare-and-swap. On MESI/MESIF machines this avoids shared→modified
// upgrades; on Armv8's load-/store-exclusive atomics the competing RMWs
// livelock against each other (paper Fig. 3: throughput near zero).
//
// As the paper notes (§4.1.3), Hemlock becomes thread-oblivious once the
// context is explicit and passed through the normal acquire/release
// interface, which is exactly what lockapi.Lock does.
type Hemlock struct {
	id uint64
	// tail holds the handle of the last enqueued context (0 = unheld).
	tail  lockapi.Cell
	nodes []*hemNode
	ctr   bool
}

type hemNode struct {
	// grant holds the id of a lock being handed over through this context,
	// or 0.
	grant lockapi.Cell
}

type hemCtx struct {
	id uint64
}

// NewHemlock returns an unheld Hemlock. ctr enables the x86 CTR
// optimization (fetch_add(0) loads, CAS stores).
func NewHemlock(ctr bool) *Hemlock {
	return &Hemlock{
		id:    hemlockID,
		nodes: make([]*hemNode, 1, 8), // slot 0 = nil
		ctr:   ctr,
	}
}

// NewCtx implements lockapi.Lock. Only safe during single-threaded setup.
func (l *Hemlock) NewCtx() lockapi.Ctx {
	l.nodes = append(l.nodes, &hemNode{})
	return &hemCtx{id: uint64(len(l.nodes) - 1)}
}

func (l *Hemlock) node(h uint64) *hemNode { return l.nodes[h] }

// loadGrant reads a grant field; with CTR it is a fetch_add(0), which takes
// the line exclusive instead of shared.
func (l *Hemlock) loadGrant(p lockapi.Proc, c *lockapi.Cell, o lockapi.Order) uint64 {
	if l.ctr {
		return p.Add(c, 0, o)
	}
	return p.Load(c, o)
}

// storeGrant writes a grant field; with CTR it is a CAS loop. The loop must
// not call Spin: both callers CAS against a value the grant protocol
// guarantees is current (the handover field is quiescent between the two
// parties), so a failed CAS is already a protocol violation and no other
// thread will ever change the cell — Spin would make await-collapsing
// backends block forever (see lockapi.Proc.Spin).
func (l *Hemlock) storeGrant(p lockapi.Proc, c *lockapi.Cell, old, v uint64, o lockapi.Order) {
	if l.ctr {
		for !p.CAS(c, old, v, o) {
		}
		return
	}
	p.Store(c, v, o)
}

// Acquire implements lockapi.Lock.
func (l *Hemlock) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	ctx := c.(*hemCtx)
	prev := p.Swap(&l.tail, ctx.id, lockapi.AcqRel)
	if prev == 0 {
		return
	}
	pg := &l.node(prev).grant
	// Wait for the predecessor to pass this lock, then reply by resetting
	// its grant so the predecessor may reuse its context.
	for l.loadGrant(p, pg, lockapi.Acquire) != l.id {
		p.Spin()
	}
	l.storeGrant(p, pg, l.id, 0, lockapi.Release)
}

// TryAcquire implements lockapi.TryLocker: succeed only when the implicit
// queue is empty. A failed CAS enqueued nothing — the grant protocol is
// never entered.
func (l *Hemlock) TryAcquire(p lockapi.Proc, c lockapi.Ctx) bool {
	return p.CAS(&l.tail, 0, c.(*hemCtx).id, lockapi.AcqRel)
}

// Release implements lockapi.Lock.
func (l *Hemlock) Release(p lockapi.Proc, c lockapi.Ctx) {
	ctx := c.(*hemCtx)
	if p.CAS(&l.tail, ctx.id, 0, lockapi.Release) {
		return // no successor
	}
	g := &l.node(ctx.id).grant
	// Pass the lock by naming it in our grant; the successor replies by
	// resetting the field, after which our context is private again.
	l.storeGrant(p, g, 0, l.id, lockapi.Release)
	for l.loadGrant(p, g, lockapi.Acquire) != 0 {
		p.Spin()
	}
}

// HasWaiters implements lockapi.WaiterDetector: with the lock held, the
// tail still naming our own context means nobody enqueued behind us.
func (l *Hemlock) HasWaiters(p lockapi.Proc, c lockapi.Ctx) bool {
	return p.Load(&l.tail, lockapi.Relaxed) != c.(*hemCtx).id
}

var (
	_ lockapi.Lock           = (*Hemlock)(nil)
	_ lockapi.WaiterDetector = (*Hemlock)(nil)
	_ lockapi.TryLocker      = (*Hemlock)(nil)
)
