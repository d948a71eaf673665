package locks

import (
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// HBO backoff bases in Spin() hints, for an owner on the waiter's own NUMA
// node and on another one. A single pause is capped at 64 times its base.
const (
	hboLocalDelay  = 2
	hboRemoteDelay = 16
)

// HBO is the Hierarchical Backoff lock of Radovic and Hagersten (HPCA'03),
// the earliest NUMA-aware lock the paper's related work cites [35]: a
// test-and-set lock whose word records the owner's NUMA node, and whose
// waiters back off proportionally to their distance from the owner — remote
// waiters back off longer, so the lock statistically stays within a node.
// Unfair (no admission order), like the original.
type HBO struct {
	mach *topo.Machine
	// word holds 0 when free, else 1 + the owner's NUMA node.
	word lockapi.Cell
}

// NewHBO returns an unheld hierarchical backoff lock for machine m.
func NewHBO(m *topo.Machine) *HBO { return &HBO{mach: m} }

// NewCtx implements lockapi.Lock; HBO needs no context.
func (l *HBO) NewCtx() lockapi.Ctx { return nil }

// Acquire implements lockapi.Lock.
func (l *HBO) Acquire(p lockapi.Proc, _ lockapi.Ctx) {
	myNuma := uint64(l.mach.CohortOf(p.ID(), topo.NUMA))
	bo := lockapi.ExpBackoff{Base: hboLocalDelay}
	for {
		if p.CAS(&l.word, 0, 1+myNuma, lockapi.Acquire) {
			return
		}
		owner := p.Load(&l.word, lockapi.Relaxed)
		if owner == 0 {
			continue // released under us; retry immediately
		}
		// Distance-proportional backoff: remote waiters yield the ground.
		base := hboLocalDelay
		if owner-1 != myNuma {
			base = hboRemoteDelay
		}
		bo.Cap = 64 * base
		bo.Pause(p)
	}
}

// TryAcquire implements lockapi.TryLocker: the CAS fast path, no backoff.
func (l *HBO) TryAcquire(p lockapi.Proc, _ lockapi.Ctx) bool {
	myNuma := uint64(l.mach.CohortOf(p.ID(), topo.NUMA))
	return p.CAS(&l.word, 0, 1+myNuma, lockapi.Acquire)
}

// Release implements lockapi.Lock.
func (l *HBO) Release(p lockapi.Proc, _ lockapi.Ctx) {
	p.Store(&l.word, 0, lockapi.Release)
}

var (
	_ lockapi.Lock      = (*HBO)(nil)
	_ lockapi.TryLocker = (*HBO)(nil)
)
