// Package hmcs implements the HMCS lock of Chabbi, Fagan and Mellor-Crummey
// (PPoPP'15), the paper's strongest baseline: a tree of MCS locks mirroring
// the NUMA hierarchy, with a threshold that bounds one tenure at every
// level. HMCS⟨n⟩ denotes the n-level configuration.
//
// Unlike CLoF, HMCS is level-homogeneous (MCS at every level) and passes the
// lock within a level through the MCS queue node's status word, which
// doubles as the tenure counter. As in internal/clof, a level is charged
// for every acquisition it hands down rather than once per child tenure, so
// the threshold bounds tenures at every level, not consecutive passes per
// level (which would compound to H^(n-1) acquisitions at the root).
//
// The memory-order annotations follow the HMCS-WMM corrections of
// Oberhauser et al. (NETYS'21) as discussed in the CLoF paper §1/§3.3:
// status handovers are release/acquire pairs and queue publication is
// releasing, which internal/mcheck verifies on its TSO mode.
package hmcs

import (
	"fmt"
	"math"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// Queue-node status encoding (as in the original paper).
const (
	// statusWait marks a queue node whose owner must keep spinning.
	statusWait = math.MaxUint64
	// statusAcquireParent tells the successor it must acquire the parent
	// level itself.
	statusAcquireParent = math.MaxUint64 - 1
	// statusCohortStart is the pass count of a fresh cohort owner.
	statusCohortStart = 1
)

// DefaultThreshold is H, the tenure bound: it bounds one tenure at every
// level, so a leaf tenure serves at most H acquisitions, the tenure one
// level up at most 2H-1, and each further level adds at most H-1. The CLoF
// paper uses H=128 for both CLoF and HMCS, and both charge tenures the same
// way, so comparisons are threshold-equal.
const DefaultThreshold = 128

// hnode is one level's MCS lock within the tree.
type hnode struct {
	// tail is the MCS queue tail (queue-node handle; 0 = empty).
	tail lockapi.Cell
	// qnode is the handle of the node this hnode uses to enqueue itself
	// into the parent's queue.
	qnode uint64
	// threshold is H, the tenure bound (DefaultThreshold).
	threshold uint64
	parent    *hnode
}

// qnode is an MCS queue node with the HMCS status word.
type qnode struct {
	next   lockapi.Cell
	status lockapi.Cell
}

// Lock is an HMCS⟨n⟩ lock over a hierarchy configuration. It implements
// lockapi.Lock; Proc.ID() must be the caller's CPU number.
//
// HMCS has no TryAcquire. A failed attempt would have to withdraw from a
// partially climbed tree, but an enqueued MCS node at any level cannot be
// unpublished without waiting for a possible mid-enqueue successor — which
// a trylock must never do.
type Lock struct {
	hier      *topo.Hierarchy
	threshold uint64
	nodes     []*qnode // handle table; slot 0 = nil
	leaves    []*hnode
}

// Option customizes New.
type Option func(*Lock)

// WithThreshold overrides the tenure bound H (DefaultThreshold).
func WithThreshold(h uint64) Option {
	return func(l *Lock) { l.threshold = h }
}

// New builds an HMCS lock whose tree mirrors the hierarchy configuration:
// one MCS lock per cohort per level.
func New(h *topo.Hierarchy, opts ...Option) (*Lock, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	l := &Lock{
		hier:      h,
		threshold: DefaultThreshold,
		nodes:     make([]*qnode, 1, 64),
	}
	for _, o := range opts {
		o(l)
	}

	m := h.Machine
	var parents []*hnode
	for li := len(h.Levels) - 1; li >= 0; li-- {
		level := h.Levels[li]
		n := m.Cohorts(level)
		nodes := make([]*hnode, n)
		for j := 0; j < n; j++ {
			hn := &hnode{threshold: l.threshold}
			if li < len(h.Levels)-1 {
				parentLevel := h.Levels[li+1]
				someCPU := m.CohortCPUs(level, j)[0]
				hn.parent = parents[m.CohortOf(someCPU, parentLevel)]
				hn.qnode = l.newQnode()
			}
			nodes[j] = hn
		}
		parents = nodes
	}
	l.leaves = parents
	return l, nil
}

// Must is New that panics on error.
func Must(h *topo.Hierarchy, opts ...Option) *Lock {
	l, err := New(h, opts...)
	if err != nil {
		panic(err)
	}
	return l
}

// Levels returns the ⟨n⟩ of this HMCS⟨n⟩.
func (l *Lock) Levels() int { return l.hier.Depth() }

// Name returns e.g. "hmcs<4>".
func (l *Lock) Name() string { return fmt.Sprintf("hmcs<%d>", l.Levels()) }

func (l *Lock) newQnode() uint64 {
	n := &qnode{}
	lockapi.Colocate(&n.next, &n.status) // one queue node = one cache line
	l.nodes = append(l.nodes, n)
	return uint64(len(l.nodes) - 1)
}

func (l *Lock) node(h uint64) *qnode { return l.nodes[h] }

// ctx is the per-thread context: one leaf queue node per leaf cohort.
type ctx struct {
	leafQ []uint64
	// held records the leaf used by the in-progress acquisition.
	held *hnode
	// heldQ is the queue-node handle enqueued at the leaf.
	heldQ uint64
}

// NewCtx implements lockapi.Lock. Only safe during single-threaded setup.
func (l *Lock) NewCtx() lockapi.Ctx {
	c := &ctx{leafQ: make([]uint64, len(l.leaves))}
	for i := range l.leaves {
		c.leafQ[i] = l.newQnode()
	}
	return c
}

// Acquire implements lockapi.Lock.
func (l *Lock) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	tc := c.(*ctx)
	cohort := l.hier.Machine.CohortOf(p.ID(), l.hier.Levels[0])
	leaf := l.leaves[cohort]
	tc.held, tc.heldQ = leaf, tc.leafQ[cohort]
	l.acquire(p, leaf, tc.heldQ)
}

// acquire is AcquireHelper from the HMCS paper.
func (l *Lock) acquire(p lockapi.Proc, h *hnode, q uint64) {
	n := l.node(q)
	p.Store(&n.status, statusWait, lockapi.Relaxed)
	p.Store(&n.next, 0, lockapi.Relaxed)
	pred := p.Swap(&h.tail, q, lockapi.AcqRel)
	if pred != 0 {
		p.Store(&l.node(pred).next, q, lockapi.Release)
		for {
			s := p.Load(&n.status, lockapi.Acquire)
			if s == statusWait {
				p.Spin()
				continue
			}
			if s < statusAcquireParent {
				// The lock was passed within this cohort; status-1 is the
				// count charged to the current tenure.
				return
			}
			break // told to acquire the parent
		}
	}
	// First of a new cohort (or instructed to climb): acquire upward.
	p.Store(&n.status, statusCohortStart, lockapi.Relaxed)
	if h.parent != nil {
		l.acquire(p, h.parent, h.qnode)
	}
}

// Release implements lockapi.Lock.
func (l *Lock) Release(p lockapi.Proc, c lockapi.Ctx) {
	tc := c.(*ctx)
	if tc.held == nil {
		panic("hmcs: Release without matching Acquire")
	}
	h, q := tc.held, tc.heldQ
	tc.held, tc.heldQ = nil, 0
	l.release(p, h, q, 1)
}

// release follows the HMCS paper's Release: pass within the cohort while
// the tenure is under the threshold, otherwise release the parent first and
// tell the successor (if any) to acquire it. k is the number of acquisitions
// to charge to this level: 1 at the leaf, the whole sub-tenure when a child
// level gives its parent away. A status s ≥ statusCohortStart records that
// s−1 acquisitions were charged before the current owner's.
func (l *Lock) release(p lockapi.Proc, h *hnode, q, k uint64) {
	n := l.node(q)
	if h.parent == nil {
		// Root: plain MCS handover. Any value below statusAcquireParent
		// unblocks the successor.
		l.releaseHelper(p, h, q, statusCohortStart)
		return
	}
	cur := p.Load(&n.status, lockapi.Relaxed) - 1 + k
	if cur < h.threshold {
		if succ := p.Load(&n.next, lockapi.Acquire); succ != 0 {
			p.Store(&l.node(succ).status, cur+1, lockapi.Release)
			return
		}
	}
	// Threshold reached or no local successor: hand the parent back,
	// charging it for this tenure, then release this level telling any
	// (late) successor to climb itself.
	l.release(p, h.parent, h.qnode, cur)
	l.releaseHelper(p, h, q, statusAcquireParent)
}

// releaseHelper is the plain MCS release passing `val` to the successor.
func (l *Lock) releaseHelper(p lockapi.Proc, h *hnode, q, val uint64) {
	n := l.node(q)
	succ := p.Load(&n.next, lockapi.Acquire)
	if succ == 0 {
		if p.CAS(&h.tail, q, 0, lockapi.Release) {
			return
		}
		for {
			if succ = p.Load(&n.next, lockapi.Acquire); succ != 0 {
				break
			}
			p.Spin()
		}
	}
	p.Store(&l.node(succ).status, val, lockapi.Release)
}

var _ lockapi.Lock = (*Lock)(nil)
