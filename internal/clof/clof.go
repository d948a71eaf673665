// Package clof implements the paper's primary contribution: the
// Compositional Lock Framework (§4). Given a hierarchy configuration
// (internal/topo) and a set of verified NUMA-oblivious basic locks
// (internal/locks), it composes one basic lock per hierarchy level into a
// multi-level, level-heterogeneous, NUMA-aware lock that is correct by
// construction (the induction argument is model-checked in internal/mcheck).
//
// The paper composes locks with compile-time syntactic recursion (C macros).
// Go has no macros, so composition happens at runtime through the
// lockapi.Lock interface — a documented substitution (DESIGN.md §3.3): the
// dispatch overhead is identical for every composed lock and for the HMCS
// baseline, so all comparisons remain apples-to-apples. The recursive
// structure of the paper's lockgen (Fig. 8) is otherwise preserved verbatim
// in acquireNode/releaseNode below.
//
// Fairness is the paper's Theorem 4.1: a composition of starvation-free
// basic locks is starvation-free, because the keep_local threshold bounds
// every tenure and each cohort then queues for the next level up like any
// other thread. No lock declares the property; it is checked and measured.
// TestKeepLocalTenureBound here and TestTenureBoundedAtEveryLevel in
// internal/obs pin the tenure bound at every level; the checker's
// bounded-bypass monitor (mcheck.CheckLiveness) decides the basic locks it
// can (DESIGN.md §3.4 records its limit); and the measured Jain index
// (TestFairnessShape in internal/figures, CLoF against HMCS) and
// starvation columns (fairness.csv, chaos.csv) cover the compositions at
// scale. The TAS fast path (WithTASFastPath) gives the theorem up.
package clof

import (
	"fmt"
	"strings"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// DefaultKeepLocalThreshold is H, the keep_local threshold (§4.1.2),
// matching HMCS. It bounds one tenure at every level: a cohort that has
// been charged H acquisitions since it took the high lock gives the high
// lock to another cohort. Every acquisition a level hands down is charged
// to it, so a leaf tenure serves at most H acquisitions, the tenure one
// level up at most 2H-1, and each further level adds at most H-1; under
// saturation every level turns over every H.
//
// Fig. 8 instead counts H local passes per level, one per child tenure,
// which compounds to H^(levels-1) acquisitions at the root (DESIGN.md §1).
const DefaultKeepLocalThreshold = 128

// Composition assigns one basic-lock type per hierarchy level, ordered from
// the lowest (most local) level to the system level — the paper's
// "tkt-clh-tkt-tkt" notation reads in the same order.
type Composition []locks.Type

// String renders the paper's notation, e.g. "hem-hem-mcs-clh".
func (c Composition) String() string {
	names := make([]string, len(c))
	for i, t := range c {
		names[i] = t.Name
	}
	return strings.Join(names, "-")
}

// ParseComposition resolves a notation string like "tkt-clh-tkt" into a
// Composition.
func ParseComposition(s string) (Composition, error) {
	parts := strings.Split(s, "-")
	// "hem-ctr" contains a dash; re-join such fragments.
	var names []string
	for i := 0; i < len(parts); i++ {
		if parts[i] == "hem" && i+1 < len(parts) && parts[i+1] == "ctr" {
			names = append(names, "hem-ctr")
			i++
			continue
		}
		names = append(names, parts[i])
	}
	comp := make(Composition, 0, len(names))
	for _, n := range names {
		t, ok := locks.ByName(n)
		if !ok {
			return nil, fmt.Errorf("clof: unknown basic lock %q in %q", n, s)
		}
		comp = append(comp, t)
	}
	return comp, nil
}

// levelLock is one node of the unfolded hierarchy (paper Fig. 7): the basic
// lock protecting one cohort at one level, plus the metadata d that lockgen
// attaches to a low lock — the waiters counter, the has_high_lock flag, the
// keep_local counter, the context used for the high lock, and the pointer to
// the high lock itself.
type levelLock struct {
	lock lockapi.Lock
	// det is the custom has_waiters when the basic lock provides one; then
	// the waiters counter below is unused (paper §4.1.2).
	det lockapi.WaiterDetector
	// waiters is the inc_waiters/dec_waiters read-indicator counter (used
	// only for basic locks without a custom detector).
	waiters lockapi.Cell
	// highHeld fuses the has_high_lock flag with the keep_local counter:
	// 0 means the high lock is not held for this cohort; v > 0 means it is
	// held and v acquisitions have been charged to the current tenure. A
	// pass charges the releaser's whole sub-tenure, not one, so the count
	// bounds one tenure at every level (see DefaultKeepLocalThreshold).
	// Carrying the count in the flag (as HMCS carries it in the status
	// word) removes a separate counter line from the handover path.
	highHeld lockapi.Cell
	// parent is the high lock's node; nil at the system root.
	parent *levelLock
	// highCtx is the context this cohort uses to acquire/release the high
	// lock. The context invariant (§4.1.3) holds because only the owner of
	// `lock` ever touches highCtx.
	highCtx lockapi.Ctx
}

// Lock is a CLoF-composed NUMA-aware lock: a tree of basic locks mirroring
// the hierarchy configuration, rooted at a single system-level lock. It
// implements lockapi.Lock; the Proc's ID() must be the acquiring thread's
// CPU number so the lock can locate the thread's leaf cohort.
type Lock struct {
	hier      *topo.Hierarchy
	comp      Composition
	threshold uint64
	// leaves[i] is the level-0 lock of leaf cohort i.
	leaves []*levelLock
	// lowLevel caches hier.Levels[0].
	lowLevel topo.Level
	// releaseOrderBug, when set, inverts the release order of low and high
	// locks — the deadlock the paper warns about in §4.1.3. Only for
	// verification tests (see internal/mcheck); never enable otherwise.
	releaseOrderBug bool
	// noCustomDetector disables custom has_waiters detectors (ablation).
	noCustomDetector bool

	// fastPath enables the TAS fast path the paper's §6 suggests as a
	// simple extension (after ShflLock's stealing policy): `fast` is a
	// test-and-set word that is the innermost mutex; an uncontended
	// acquirer takes it directly, skipping the whole hierarchy climb. Slow
	// acquirers still climb, then claim `fast` with priority (stealing is
	// suppressed while slowActive > 0). Costs strict fairness, like every
	// fast-path extension.
	fastPath   bool
	fast       lockapi.Cell
	slowActive lockapi.Cell

	// canTry records whether every component lock supports TryAcquire, which
	// is what the composed TryAcquire needs to climb-and-roll-back.
	canTry bool
}

// Option customizes New.
type Option func(*Lock)

// WithThreshold overrides the keep_local threshold H (default 128).
func WithThreshold(h uint64) Option {
	return func(l *Lock) { l.threshold = h }
}

// WithReleaseOrderBug builds the intentionally broken variant that releases
// the low lock before the high lock, violating the context invariant
// (§4.1.3). It exists so the model checker can demonstrate the resulting
// deadlock; never use it in real code.
func WithReleaseOrderBug() Option {
	return func(l *Lock) { l.releaseOrderBug = true }
}

// WithoutCustomHasWaiters forces the generic inc_waiters/dec_waiters
// read-indicator counter even for locks offering a custom detector
// (§4.1.2). Used by the ablation benchmarks to quantify the custom
// has_waiters optimization.
func WithoutCustomHasWaiters() Option {
	return func(l *Lock) { l.noCustomDetector = true }
}

// WithTASFastPath enables the test-and-set fast path (§6: "Extending CLoF
// with the same TAS approach as ShflLock is rather simple"): single-thread
// and low-contention acquisitions bypass the hierarchy entirely. The
// resulting lock is no longer strictly FIFO: a fast-path acquirer may
// overtake every queued waiter.
func WithTASFastPath() Option {
	return func(l *Lock) { l.fastPath = true }
}

// New composes a CLoF lock over the hierarchy h: comp[i] is the basic lock
// used at h.Levels[i]. One basic-lock instance is created per cohort per
// level and linked to its parent cohort's lock one level up.
func New(h *topo.Hierarchy, comp Composition, opts ...Option) (*Lock, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if len(comp) != len(h.Levels) {
		return nil, fmt.Errorf("clof: composition %q has %d locks for %d levels", comp, len(comp), len(h.Levels))
	}
	l := &Lock{
		hier:      h,
		comp:      comp,
		threshold: DefaultKeepLocalThreshold,
		lowLevel:  h.Levels[0],
	}
	for _, o := range opts {
		o(l)
	}

	m := h.Machine
	// Build top-down: parents[j] holds the node for cohort j of the level
	// currently above the one being built.
	var parents []*levelLock
	for li := len(h.Levels) - 1; li >= 0; li-- {
		level := h.Levels[li]
		n := m.Cohorts(level)
		nodes := make([]*levelLock, n)
		for j := 0; j < n; j++ {
			basic := comp[li].New()
			node := &levelLock{lock: basic}
			if d, ok := basic.(lockapi.WaiterDetector); ok && !l.noCustomDetector {
				node.det = d
			}
			if li < len(h.Levels)-1 {
				// Parent cohort: the enclosing cohort at the level above.
				parentLevel := h.Levels[li+1]
				someCPU := m.CohortCPUs(level, j)[0]
				node.parent = parents[m.CohortOf(someCPU, parentLevel)]
				// The context this cohort uses for the high lock lives in
				// the low lock's metadata (context abstraction, §4.1.3).
				node.highCtx = node.parent.lock.NewCtx()
			}
			nodes[j] = node
		}
		parents = nodes
	}
	l.leaves = parents

	// The composition supports TryAcquire iff every level's basic lock
	// does (checked on one leaf-to-root chain; levels are
	// type-homogeneous).
	l.canTry = true
	for n := l.leaves[0]; n != nil; n = n.parent {
		l.canTry = l.canTry && lockapi.SupportsTry(n.lock)
	}
	return l, nil
}

// Must is New that panics on error, for tests and examples.
func Must(h *topo.Hierarchy, comp Composition, opts ...Option) *Lock {
	l, err := New(h, comp, opts...)
	if err != nil {
		panic(err)
	}
	return l
}

// Hierarchy returns the hierarchy configuration the lock was built for.
func (l *Lock) Hierarchy() *topo.Hierarchy { return l.hier }

// Composition returns the per-level basic-lock assignment.
func (l *Lock) Composition() Composition { return l.comp }

// Name returns the paper notation for this lock, e.g. "tkt-clh-tkt-tkt".
func (l *Lock) Name() string { return l.comp.String() }

// threadCtx is the per-thread context: one basic-lock context per leaf
// cohort (a thread uses the leaf of whatever CPU its Proc reports).
type threadCtx struct {
	leafCtxs []lockapi.Ctx
	// held remembers the leaf used by the in-progress acquisition so that
	// Release pairs correctly even if the caller migrates between CPUs of
	// different cohorts while holding the lock.
	held *levelLock
	// heldCtx is the leaf context used by the in-progress acquisition.
	heldCtx lockapi.Ctx
	// fastOnly marks an acquisition that took the TAS fast path and holds
	// no hierarchy locks.
	fastOnly bool
}

// NewCtx implements lockapi.Lock. Only safe during single-threaded setup.
func (l *Lock) NewCtx() lockapi.Ctx {
	tc := &threadCtx{leafCtxs: make([]lockapi.Ctx, len(l.leaves))}
	for i, leaf := range l.leaves {
		tc.leafCtxs[i] = leaf.lock.NewCtx()
	}
	return tc
}

// Acquire implements lockapi.Lock: climb from the leaf cohort of p's CPU to
// the system root (paper Fig. 7/8), unless the TAS fast path wins first.
func (l *Lock) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	tc := c.(*threadCtx)
	if l.fastPath {
		// Steal only when the lock looks free AND nobody is in the slow
		// path (ShflLock-style bounded stealing).
		if p.Load(&l.fast, lockapi.Relaxed) == 0 && //lint:order relaxed-ok fast-path peek; the CAS provides Acquire on success
			p.Load(&l.slowActive, lockapi.Relaxed) == 0 &&
			p.CAS(&l.fast, 0, 1, lockapi.Acquire) {
			tc.fastOnly = true
			return
		}
		p.Add(&l.slowActive, 1, lockapi.Relaxed)
	}
	cohort := l.hier.Machine.CohortOf(p.ID(), l.lowLevel)
	leaf := l.leaves[cohort]
	tc.held = leaf
	tc.heldCtx = tc.leafCtxs[cohort]
	l.acquireNode(p, leaf, tc.heldCtx)
	if l.fastPath {
		// Hierarchy held: wait out any fast-path holder, then own the TAS
		// word. New stealers are suppressed by slowActive.
		for !p.CAS(&l.fast, 0, 1, lockapi.Acquire) {
			p.Spin()
		}
	}
}

// acquireNode is lockgen(acq(CLoF(l,L), c)) from Fig. 8.
func (l *Lock) acquireNode(p lockapi.Proc, n *levelLock, c lockapi.Ctx) {
	if n.parent == nil {
		// Base case: the system-level basic lock.
		n.lock.Acquire(p, c)
		return
	}
	if n.det == nil {
		p.Add(&n.waiters, 1, lockapi.Relaxed) // inc_waiters
	}
	n.lock.Acquire(p, c)
	if n.det == nil {
		p.Add(&n.waiters, ^uint64(0), lockapi.Relaxed) // dec_waiters
	}
	// If the previous owner passed the high lock within this cohort, it is
	// already ours; otherwise climb. All these auxiliary accesses are
	// relaxed: the paper's VSync analysis (§4.2.3) shows the basic locks'
	// own barriers provide all required ordering.
	//lint:order relaxed-ok highHeld is passed under the held low lock, whose barriers order it (§4.2.3)
	if p.Load(&n.highHeld, lockapi.Relaxed) == 0 {
		// The parent-ward climb (§3.1) orders nested instances by tree height.
		l.acquireNode(p, n.parent, n.highCtx)
	}
}

// TrySupported implements lockapi.TryInfo: the composition supports
// TryAcquire when every component lock does (the try climb must be able to
// roll back from any level), or unconditionally with the TAS fast path
// (which tries the fast word alone and never climbs).
func (l *Lock) TrySupported() bool { return l.fastPath || l.canTry }

// TryAcquire implements lockapi.TryLocker. With the fast path the attempt
// is a single bounded-stealing CAS on the TAS word. Otherwise it climbs
// leaf-to-root with each level's TryAcquire and rolls back — releasing the
// low lock — as soon as one level refuses; a successor then finds highHeld
// clear and climbs itself, so the rollback leaves ordinary lock state. The
// waiters read-indicator is skipped on the try path: releasers then at worst
// under-count waiters and conservatively give the high lock away, which is
// the safe direction (paper §4.1.2).
func (l *Lock) TryAcquire(p lockapi.Proc, c lockapi.Ctx) bool {
	tc := c.(*threadCtx)
	if l.fastPath {
		if p.Load(&l.fast, lockapi.Relaxed) == 0 && //lint:order relaxed-ok fast-path peek; the CAS provides Acquire on success
			p.Load(&l.slowActive, lockapi.Relaxed) == 0 &&
			p.CAS(&l.fast, 0, 1, lockapi.Acquire) {
			tc.fastOnly = true
			return true
		}
		return false
	}
	if !l.canTry {
		return false
	}
	cohort := l.hier.Machine.CohortOf(p.ID(), l.lowLevel)
	leaf := l.leaves[cohort]
	ctx := tc.leafCtxs[cohort]
	if !l.tryAcquireNode(p, leaf, ctx) {
		return false
	}
	tc.held, tc.heldCtx = leaf, ctx
	return true
}

// tryAcquireNode is acquireNode with refusal instead of waiting.
func (l *Lock) tryAcquireNode(p lockapi.Proc, n *levelLock, c lockapi.Ctx) bool {
	if n.parent == nil {
		return n.lock.(lockapi.TryLocker).TryAcquire(p, c)
	}
	if !n.lock.(lockapi.TryLocker).TryAcquire(p, c) {
		return false
	}
	//lint:order relaxed-ok highHeld is passed under the held low lock, whose barriers order it (§4.2.3)
	if p.Load(&n.highHeld, lockapi.Relaxed) != 0 {
		return true // the high lock was passed within this cohort
	}
	// Same parent-ward climb as acquireNode; a failed climb rolls back below.
	if l.tryAcquireNode(p, n.parent, n.highCtx) {
		return true
	}
	// Roll back: we hold the low lock but not the high one, and highHeld is
	// 0, so a plain low release restores ordinary state.
	n.lock.Release(p, c)
	return false
}

// Release implements lockapi.Lock.
func (l *Lock) Release(p lockapi.Proc, c lockapi.Ctx) {
	tc := c.(*threadCtx)
	if l.fastPath {
		// The TAS word is the innermost mutex: drop it first.
		p.Store(&l.fast, 0, lockapi.Release)
		if tc.fastOnly {
			tc.fastOnly = false
			return
		}
	}
	n, ctx := tc.held, tc.heldCtx
	if n == nil {
		panic("clof: Release without matching Acquire")
	}
	tc.held, tc.heldCtx = nil, nil
	l.releaseNode(p, n, ctx, 1)
	if l.fastPath {
		// Leave the slow path only now: the decrement is off the critical
		// path, and the fast word was held throughout, so no stealer could
		// slip in while slowActive still counted this thread.
		//lint:order relaxed-ok slowActive is a stealing hint, not lock state; the fast word's Release store above publishes the critical section
		p.Add(&l.slowActive, ^uint64(0), lockapi.Relaxed)
	}
}

// releaseNode is lockgen(rel(CLoF(l,L), c)) from Fig. 8, with tenure
// accounting in place of Fig. 8's per-level pass counter. k is the number
// of acquisitions to charge to this level: 1 for the releasing thread at the
// leaf, the whole sub-tenure when a child level gives its high lock away.
// keep_local and pass_high_lock are fused: the pass flag's value is the
// number of acquisitions charged to the current tenure (see
// levelLock.highHeld).
func (l *Lock) releaseNode(p lockapi.Proc, n *levelLock, c lockapi.Ctx, k uint64) {
	if n.parent == nil {
		n.lock.Release(p, c)
		return
	}
	if l.hasWaiters(p, n, c) {
		// keep_local: pass within the cohort unless the tenure has been
		// charged H acquisitions.
		v := p.Load(&n.highHeld, lockapi.Relaxed)
		if v+k < l.threshold {
			//lint:order relaxed-ok pass_high_lock happens before the low lock's Release, which publishes it (§4.2.3)
			p.Store(&n.highHeld, v+k, lockapi.Relaxed) // pass_high_lock
			n.lock.Release(p, c)
			return
		}
	}
	// Give the high lock away, charging the level above for every
	// acquisition this tenure served. The order is crucial (§4.1.3): the
	// high lock must be released BEFORE the low lock, otherwise a successor
	// could grab the low lock and race us on highCtx, violating the context
	// invariant and deadlocking.
	v := p.Load(&n.highHeld, lockapi.Relaxed)
	if v != 0 {
		//lint:order relaxed-ok clear_high_lock happens before the high lock's Release, which publishes it (§4.2.3)
		p.Store(&n.highHeld, 0, lockapi.Relaxed) // clear_high_lock
	}
	if l.releaseOrderBug {
		n.lock.Release(p, c)                       // ← the §4.1.3 bug:
		l.releaseNode(p, n.parent, n.highCtx, v+k) //   low before high
		return
	}
	l.releaseNode(p, n.parent, n.highCtx, v+k) // 1: release L
	n.lock.Release(p, c)                       // 2: then release l
}

// hasWaiters is the paper's has_waiters: the custom detector when the basic
// lock offers one, the read-indicator counter otherwise.
func (l *Lock) hasWaiters(p lockapi.Proc, n *levelLock, c lockapi.Ctx) bool {
	if n.det != nil {
		return n.det.HasWaiters(p, c)
	}
	return p.Load(&n.waiters, lockapi.Relaxed) > 0
}

var (
	_ lockapi.Lock      = (*Lock)(nil)
	_ lockapi.TryLocker = (*Lock)(nil)
	_ lockapi.TryInfo   = (*Lock)(nil)
)
