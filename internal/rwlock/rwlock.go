// Package rwlock implements a NUMA-aware reader-writer lock in the style of
// Calciu et al. (PPoPP'13) — the work whose distributed read indicator the
// CLoF paper's lock-passing borrows (§4.1.2). Readers register in a
// per-cache-group counter (one cache line per cohort, so read-side traffic
// stays inside the cohort); writers serialize through any lockapi.Lock —
// including a CLoF-composed NUMA-aware lock — then raise a writer flag and
// wait for every group's readers to drain. Writer-preference: readers that
// arrive while a writer is active or pending back off, so writers cannot
// starve.
//
// RWLock implements lockapi.Lock (the exclusive writer path) and
// lockapi.RWLocker (the shared reader path), so it sits in the lock catalog
// like any other lock and guards a shard of the sharded store
// (internal/store), whose read paths take shared acquisitions on it.
package rwlock

import (
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// RWLock is the NUMA-aware reader-writer lock.
type RWLock struct {
	mach  *topo.Machine
	level topo.Level
	// wlock serializes writers (and carries their NUMA-awareness).
	wlock lockapi.Lock
	// writerActive is raised while a writer holds or drains the lock.
	writerActive lockapi.Cell
	// readers[i] counts active readers of cohort i (own cache line each).
	readers []*lockapi.Cell
}

// New builds an RWLock over machine m with reader counters per cohort of
// `level` (CacheGroup in the original design). wlock serializes writers; a
// plain MCS works, a CLoF lock makes writer handovers NUMA-aware too.
func New(m *topo.Machine, level topo.Level, wlock lockapi.Lock) *RWLock {
	n := m.Cohorts(level)
	readers := make([]*lockapi.Cell, n)
	for i := range readers {
		readers[i] = &lockapi.Cell{} // one line per cohort (no colocation)
	}
	return &RWLock{mach: m, level: level, wlock: wlock, readers: readers}
}

// NewCtx implements lockapi.Lock: the writer's context is the writer
// lock's (readers need none). Only safe during single-threaded setup.
func (l *RWLock) NewCtx() lockapi.Ctx { return l.wlock.NewCtx() }

// AcquireShared implements lockapi.RWLocker: acquire the lock for reading.
// Multiple readers of any cohort may hold it simultaneously; readers yield
// to active or draining writers. Readers carry no state, so the context is
// ignored.
func (l *RWLock) AcquireShared(p lockapi.Proc, _ lockapi.Ctx) {
	group := l.readers[l.mach.CohortOf(p.ID(), l.level)]
	for {
		p.Add(group, 1, lockapi.Acquire)
		if p.Load(&l.writerActive, lockapi.Acquire) == 0 {
			return
		}
		// A writer is active or draining: undo and wait it out.
		p.Add(group, ^uint64(0), lockapi.Release)
		for p.Load(&l.writerActive, lockapi.Acquire) != 0 {
			p.Spin()
		}
	}
}

// ReleaseShared implements lockapi.RWLocker: release a read acquisition.
func (l *RWLock) ReleaseShared(p lockapi.Proc, _ lockapi.Ctx) {
	group := l.readers[l.mach.CohortOf(p.ID(), l.level)]
	p.Add(group, ^uint64(0), lockapi.Release)
}

// Acquire implements lockapi.Lock: acquire the lock for writing —
// serialize against other writers, raise the flag, then wait for every
// cohort's readers to drain.
func (l *RWLock) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	l.wlock.Acquire(p, c)
	p.Store(&l.writerActive, 1, lockapi.SeqCst)
	for _, group := range l.readers {
		for p.Load(group, lockapi.Acquire) != 0 {
			p.Spin()
		}
	}
}

// Release implements lockapi.Lock: release a write acquisition.
func (l *RWLock) Release(p lockapi.Proc, c lockapi.Ctx) {
	p.Store(&l.writerActive, 0, lockapi.Release)
	l.wlock.Release(p, c)
}

var _ lockapi.RWLocker = (*RWLock)(nil)
