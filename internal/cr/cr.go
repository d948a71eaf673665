// Package cr implements a concurrency-restriction combinator in the style of
// Dice & Kogan, "Avoiding Scalability Collapse by Restricting Concurrency"
// (PAPERS.md): Restrict wraps any exclusive lockapi.Lock and caps how many
// threads may contend on it at once. Admitted threads (the *active set*, at
// most the adaptive target) contend on the inner lock as usual; excess
// arrivals park in per-cohort *passive queues* and are recirculated —
// granted back into the active set — one per release, with seeded-jitter
// backoff so recirculating waiters do not convoy.
//
// The combinator is NUMA-aware: passive waiters queue per NUMA node
// (topo.NUMA cohort), and a releasing holder prefers to grant a waiter from
// its own cohort (the cohort sharing the deepest topo.ShareLevel with it),
// bounded by a pass limit after which a rotation pointer forces the grant to
// the next waiting cohort — locality without starvation.
//
// The admission target adapts on backends that expose virtual time
// (memsim.Proc's Time method): a hold time far above the nominal critical
// section means the holder was preempted under the lock, so the target
// halves — fewer active waiters then burn coherence bandwidth convoying
// behind descheduled owners — and it grows back by one after a run of
// healthy releases.
//
// Restricted restricts the exclusive path only. It forwards trylock
// (TryLocker, with TryInfo answering for the inner lock), so the fault-plan
// sweeps (abandoned acquires included) see through the wrapper. Restrict
// refuses inner locks with a reader path (lockapi.RWLocker,
// lockapi.SeqReader): a restricted seqlock is built the other way round,
// seqlock.Wrap over Restrict (the catalog's seq:cr: names).
// internal/catalog enumerates restricted variants under the "cr" family;
// internal/mcheck verifies mutual exclusion and bounded-bypass liveness,
// including that the deliberately broken recirculation variant
// (Opts.BreakRecirculation) is caught as starvation.
package cr

import (
	"fmt"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/xrand"
)

const (
	// level is the cohort granularity of the passive queues and of the
	// grant-locality preference: per-core queues would make every waiter
	// its own cohort and restrict nothing about placement.
	level = topo.NUMA
	// maxCohorts bounds the per-cohort queue count: cohort eligibility is
	// scanned into a uint64 bitmask.
	maxCohorts = 64
)

// Tuning values. Only the pass limit is an option (Opts.PassLimit).
const (
	// DefaultPassLimit is how many consecutive grants one cohort may
	// receive before the rotation pointer forces the next waiting cohort.
	DefaultPassLimit = 8
	// minTarget is the shrink floor: a lone holder with every waiter
	// parked, the maximum restriction under heavy preemption.
	minTarget = 1
	// preemptHoldNS is the hold time above which a release is treated as a
	// preempted-holder event (shrink signal): ~2.5× the Kyoto-style 8µs
	// critical section, ~67× the LevelDB-style 300ns one.
	preemptHoldNS = 20_000
	// growEvery is how many consecutive healthy releases grow a shrunken
	// target back by one.
	growEvery = 64
	// backoffSeed is the base seed for the per-context jittered backoff;
	// contexts derive distinct deterministic streams from it.
	backoffSeed = 0xC12C0F5EED
)

// Opts tunes Restrict. The zero value selects sensible defaults for every
// field.
type Opts struct {
	// Target is the steady-state admission target: the maximum number of
	// threads simultaneously holding or contending on the inner lock.
	// 0 means max(3, NumCPUs/32). The adaptive target never exceeds it.
	Target int
	// PassLimit bounds consecutive grants to one cohort before rotation is
	// forced (0 means DefaultPassLimit).
	PassLimit int
	// BackoffCap bounds the passive waiters' recirculation backoff
	// (0 means lockapi.DefaultBackoffCap).
	BackoffCap int
	// BreakRecirculation deliberately breaks the grant policy (a releaser
	// always favors its own cohort and heads barge without designation),
	// re-creating the starvation bug bounded rotation exists to prevent.
	// Test-only: internal/mcheck proves this variant starves remote
	// cohorts (unbounded bypass) while the correct policy stays bounded.
	BreakRecirculation bool
}

// Restricted is the concurrency-restriction wrapper returned by Restrict.
//
// Shared state:
//   - active: threads currently admitted (holding or contending inner);
//   - tgt: the adaptive admission target, in [minTarget, Target];
//   - rota: packed grant-rotation state (last granted cohort, its streak
//     length, and the rotation pointer), colocated with tgt and the
//     grow counter as one metadata line;
//   - per-cohort ticket/grant pairs: the passive FIFO queues. Ticket and
//     grant deliberately do NOT share a line (unlike a Ticketlock):
//     arrivals then never disturb parked waiters, only grants do;
//   - per-cohort wake banks: passive waiter t parks on wake[t mod slots],
//     its own line, so a grant invalidates ONE waiter's line instead of
//     broadcasting to every parked waiter — local spinning is what keeps
//     the release path O(1) in the waiter count, the property the whole
//     combinator exists for. The bank cell holds "granted up to": w > t
//     means ticket t is granted, w == t means ticket t is the head (each
//     grant also pokes the next head's slot with the new grant value).
type Restricted struct {
	inner lockapi.Lock
	m     *topo.Machine
	o     Opts
	nodes int
	slots int   // wake-bank width per cohort (>= CPUs per cohort)
	rep   []int // representative CPU per cohort, for ShareLevel tests

	active  lockapi.Cell
	tgt     lockapi.Cell
	rota    lockapi.Cell
	grow    lockapi.Cell
	qticket []lockapi.Cell
	qgrant  []lockapi.Cell
	wake    [][]lockapi.Cell

	ctxSeq uint64
}

// ctx is the per-thread context: the inner lock's context, the jittered
// recirculation backoff, and the acquisition timestamp the adaptive target
// reads back at release.
type ctx struct {
	inner      lockapi.Ctx
	bo         lockapi.ExpBackoff
	acquiredAt int64
	timed      bool
}

// Restrict wraps inner in a concurrency-restriction combinator for machine
// m. Only safe during single-threaded setup. Panics if the machine has more
// than 64 NUMA nodes, or if inner has a reader path:
// seqlock.Wrap(Restrict(m, inner, o)) is the lock a
// restricted seqlock should be — admission, the inner acquire and the
// version bump happen in the same order, and optimistic readers bypass
// admission either way.
func Restrict(m *topo.Machine, inner lockapi.Lock, o Opts) *Restricted {
	_, rw := inner.(lockapi.RWLocker)
	_, sq := inner.(lockapi.SeqReader)
	if rw || sq {
		panic(fmt.Sprintf("cr: Restrict over %T, which has a reader path; cr restricts the exclusive path only — wrap the restricted lock instead (seq:cr:<lock>, not cr:seq:<lock>)", inner))
	}
	return newRestricted(m, inner, o)
}

// newRestricted is the single-threaded constructor behind Restrict.
func newRestricted(m *topo.Machine, inner lockapi.Lock, o Opts) *Restricted {
	if o.Target <= 0 {
		// A small active set is the point: enough concurrency to overlap a
		// grant with the next holder's critical section, few enough spinners
		// that the inner lock's handover cost stays near its uncontended
		// floor. The floor of 3 — holder, one spinner, one grant in flight —
		// covers the active-set underflow window at shallow passive queues
		// (a refill that races a queue drain); NumCPUs/32 adds overlap slack
		// on larger machines.
		o.Target = m.NumCPUs() / 32
		if o.Target < 3 {
			o.Target = 3
		}
	}
	if o.PassLimit <= 0 {
		o.PassLimit = DefaultPassLimit
	}
	nodes := m.Cohorts(level)
	if nodes > maxCohorts {
		panic(fmt.Sprintf("cr: %d cohorts at level %v exceeds %d", nodes, level, maxCohorts))
	}
	slots := m.NumCPUs() / nodes
	if slots < 1 {
		slots = 1
	}
	l := &Restricted{
		inner:   inner,
		m:       m,
		o:       o,
		nodes:   nodes,
		slots:   slots,
		rep:     make([]int, nodes),
		qticket: make([]lockapi.Cell, nodes),
		qgrant:  make([]lockapi.Cell, nodes),
		wake:    make([][]lockapi.Cell, nodes),
	}
	for n := 0; n < nodes; n++ {
		l.rep[n] = m.CohortCPUs(level, n)[0]
		l.wake[n] = make([]lockapi.Cell, slots)
	}
	l.tgt.Init(uint64(o.Target))
	// One grant-metadata line: the adaptive target, the rotation state and
	// the recovery counter travel together, like CLoF's per-level words.
	lockapi.Colocate(&l.tgt, &l.rota, &l.grow)
	return l
}

// NewCtx implements lockapi.Lock. Each context gets its own deterministic
// jitter stream, derived from backoffSeed and the allocation order.
func (l *Restricted) NewCtx() lockapi.Ctx {
	l.ctxSeq++
	seed := xrand.New(backoffSeed+l.ctxSeq).Uint64() | 1
	return &ctx{
		inner: l.inner.NewCtx(),
		bo: lockapi.ExpBackoff{
			Cap:  l.o.BackoffCap,
			Seed: seed,
		},
	}
}

// nodeOf maps p's CPU to its passive-queue cohort: the cohort whose
// representative shares at least the restriction level with it (the deepest
// topo.ShareLevel). Out-of-range native worker ids wrap onto the machine.
func (l *Restricted) nodeOf(p lockapi.Proc) int {
	cpu := p.ID()
	if cpu < 0 || cpu >= l.m.NumCPUs() {
		cpu = ((cpu % l.m.NumCPUs()) + l.m.NumCPUs()) % l.m.NumCPUs()
	}
	for n := 0; n < l.nodes; n++ {
		if l.m.ShareLevel(cpu, l.rep[n]) <= level {
			return n
		}
	}
	return 0
}

// rota packing: |turn:16|streak:16|rot:16| in the low 48 bits.

// packRota packs the rotation state into one cell value.
func packRota(turn, streak, rot int) uint64 {
	return uint64(turn)<<32 | uint64(streak)<<16 | uint64(rot)
}

// unpackRota unpacks a rotation-state cell value.
func unpackRota(rs uint64) (turn, streak, rot int) {
	return int(rs >> 32 & 0xFFFF), int(rs >> 16 & 0xFFFF), int(rs & 0xFFFF)
}

// target reads the current adaptive admission target. Only adapt moves it,
// and adapt runs only on a Proc with virtual time, so on any other Proc
// (native, the model checker) the target is the configured constant and the
// shared load is skipped — that also keeps the model-checked op count down.
func (l *Restricted) target(p lockapi.Proc) uint64 {
	if _, timed := p.(interface{ Time() int64 }); !timed {
		return uint64(l.o.Target)
	}
	tg := p.Load(&l.tgt, lockapi.Acquire)
	if tg < 1 {
		tg = 1
	}
	return tg
}

// designate picks the cohort the next grant should go to, as a function of
// the rotation state and the queue occupancy: the caller's own cohort when
// it waits and is not streak-blocked (local handoff — the ShareLevel
// preference), else the first waiting cohort past the rotation pointer.
// Heads pass local=false and get the pure-rotation answer, so at most one
// cohort's head ever self-admits — the property the bounded-bypass proof
// needs. viaRot reports a rotation (non-local) pick.
//
// self >= 0 marks the caller's own cohort as known non-empty (a queue head
// knows it waits), skipping its queue loads; self-designating callers must
// then ignore qg. For self < 0 callers, qg is the designated cohort's
// observed grant position: granting with CAS(qgrant[des], qg, qg+1) is
// exactly as fresh as re-loading would be — the CAS fails if the queue
// moved — so no revalidation loads are needed.
//
// designate reads the rotation state itself, but only after the occupancy
// scan finds a waiter: the common empty-queues release exits without touching
// the rota line at all. The observed rs is returned for noteGrant.
func (l *Restricted) designate(p lockapi.Proc, local bool, self int) (des int, qg, rs uint64, viaRot, ok bool) {
	var mask uint64
	var gs [maxCohorts]uint64
	for n := 0; n < l.nodes; n++ {
		if n == self {
			mask |= 1 << uint(n)
			continue
		}
		t := p.Load(&l.qticket[n], lockapi.Acquire)
		g := p.Load(&l.qgrant[n], lockapi.Acquire)
		// Strictly greater, not != : the two loads are not a snapshot. A
		// ticket read that predates an enqueue-and-grant cycle pairs a
		// stale-low t with a fresh g > t, and != would fabricate a waiting
		// cohort out of an empty queue — granting a ticket nobody holds and
		// leaking an active slot. t > g is tear-proof: tickets only grow,
		// so t > g proves ticket g was issued and is still ungranted.
		if t > g {
			mask |= 1 << uint(n)
			gs[n] = g
		}
	}
	if mask == 0 {
		return 0, 0, 0, false, false
	}
	rs = p.Load(&l.rota, lockapi.Acquire)
	turn, streak, rot := unpackRota(rs)
	blocked := -1
	if streak >= l.o.PassLimit && !l.o.BreakRecirculation {
		blocked = turn
	}
	if mask&(mask-1) == 0 {
		// A sole waiting cohort is granted even when streak-blocked:
		// starving the only waiters would trade fairness for deadlock.
		for n := 0; n < l.nodes; n++ {
			if mask&(1<<uint(n)) != 0 {
				return n, gs[n], rs, false, true
			}
		}
	}
	if local || l.o.BreakRecirculation {
		mine := l.nodeOf(p)
		if mask&(1<<uint(mine)) != 0 && mine != blocked {
			return mine, gs[mine], rs, false, true
		}
	}
	for d := 1; d <= l.nodes; d++ {
		n := (rot + d) % l.nodes
		if mask&(1<<uint(n)) != 0 && n != blocked {
			return n, gs[n], rs, true, true
		}
	}
	// Unreachable: >= 2 waiting cohorts and at most one blocked.
	return turn, gs[turn], rs, false, true
}

// noteGrant folds a grant to cohort des into the rotation state. A lost CAS
// means a concurrent granter already advanced the state; the stale update is
// dropped (the state is a fairness heuristic, the hard bound comes from
// designate re-reading it).
func (l *Restricted) noteGrant(p lockapi.Proc, rs uint64, des int, viaRot bool) {
	turn, streak, rot := unpackRota(rs)
	if des == turn {
		if streak < 0xFFFF {
			streak++
		}
	} else {
		streak = 1
	}
	if viaRot {
		rot = des
	}
	p.CAS(&l.rota, rs, packRota(des, streak, rot), lockapi.AcqRel)
}

// pokeSlot advances a wake-bank cell to v, never backwards: concurrent
// granters (a releaser and a self-admitting head, or two releasers granting
// consecutive tickets whose slots collide) may race their wake writes, and a
// stale value landing late would strand an already-granted waiter parked on
// a cell nobody will write again. Values are monotonic tickets, so the CAS
// loop terminates.
func (l *Restricted) pokeSlot(p lockapi.Proc, cell *lockapi.Cell, v uint64) {
	for {
		cur := p.Load(cell, lockapi.Acquire)
		if cur >= v {
			return
		}
		if p.CAS(cell, cur, v, lockapi.Release) {
			return
		}
	}
}

// admitHead status codes.
const (
	admitWait     = iota // not designated or no slot: park on the grant word
	admitRetry           // active moved under the CAS: re-evaluate now
	admitAdmitted        // self-admitted: slot taken, grant advanced
	admitGranted         // lost the grant race to a releaser: slot pre-paid
)

// admitHead is one self-admission attempt by the head waiter (ticket t) of
// cohort n: if designation names this cohort and a slot is free, take the
// slot and advance the grant past our own ticket. Losing the grant CAS means
// a releaser granted us concurrently and already paid a slot, so ours is
// returned. Single attempt, no waiting — the caller owns the loop.
func (l *Restricted) admitHead(p lockapi.Proc, n int, t uint64) int {
	// Slot availability first: a head of a full active set parks after a
	// single load, without disturbing the queue or rotation lines.
	a := p.Load(&l.active, lockapi.Acquire)
	if a >= l.target(p) {
		return admitWait
	}
	des, _, rs, viaRot, ok := l.designate(p, false, n)
	if l.o.BreakRecirculation {
		// Broken variant: every head barges regardless of designation.
		des, viaRot, ok = n, false, true
	}
	if !ok || des != n {
		// Not this cohort's turn. Park; a releaser's maybeGrant rotates to
		// us within PassLimit handovers, and with the lock idle the
		// designated cohort's own head self-admits, releases, and grants us.
		return admitWait
	}
	if !p.CAS(&l.active, a, a+1, lockapi.AcqRel) {
		return admitRetry
	}
	if p.CAS(&l.qgrant[n], t, t+1, lockapi.AcqRel) {
		// Promote the next head: its wake slot learns the new grant value,
		// so it discovers headship on its own line (w == its ticket).
		l.pokeSlot(p, &l.wake[n][int((t+1)%uint64(l.slots))], t+1)
		l.noteGrant(p, rs, n, viaRot)
		return admitAdmitted
	}
	p.Add(&l.active, ^uint64(0), lockapi.AcqRel)
	return admitGranted
}

// Acquire implements lockapi.Lock: enqueue into the cohort's passive queue
// — the very first memory operation publishes the claim, which is what makes
// the bounded-bypass guarantee machine-checkable — then wait to be granted
// into the active set (by a releaser, or by self-admission when head and
// designated) and finally contend on the inner lock among at most target
// threads.
func (l *Restricted) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	cc := c.(*ctx)
	n := l.nodeOf(p)
	t := p.Add(&l.qticket[n], 1, lockapi.AcqRel) - 1
	slot := &l.wake[n][int(t%uint64(l.slots))]
	cc.bo.Reset()
	for {
		w := p.Load(slot, lockapi.Acquire)
		if w > t {
			// A releaser granted us and pre-paid the active slot.
			break
		}
		if w != t {
			// Passive: recirculate with jittered backoff on our own wake
			// line. The first Spin of the pause parks on the slot just
			// loaded, so only a grant or head-poke aimed at us wakes us.
			cc.bo.Pause(p)
			continue
		}
		// w == t: we are the head of our cohort's queue.
		st := l.admitHead(p, n, t)
		if st == admitAdmitted || st == admitGranted {
			break
		}
		if st == admitRetry {
			continue
		}
		// Waiting head: park on our wake slot (re-load it so backends that
		// await the last-touched location watch the right cell — a grant
		// always lands on this slot, because releasers scan every queue
		// and rotation bounds how long ours is passed over).
		if p.Load(slot, lockapi.Acquire) == t {
			p.Spin()
		}
	}
	l.inner.Acquire(p, cc.inner)
	if tp, ok := p.(interface{ Time() int64 }); ok {
		cc.acquiredAt, cc.timed = tp.Time(), true
	} else {
		cc.timed = false
	}
}

// adapt runs the release-side target adaptation: a pathological hold time
// (preempted holder) halves the target; growEvery consecutive healthy
// releases grow it back by one, up to the configured Target.
func (l *Restricted) adapt(p lockapi.Proc, cc *ctx) {
	if !cc.timed {
		return
	}
	tp, ok := p.(interface{ Time() int64 })
	if !ok {
		return
	}
	hold := tp.Time() - cc.acquiredAt
	if hold > preemptHoldNS {
		tg := p.Load(&l.tgt, lockapi.Acquire)
		if half := tg / 2; half >= minTarget && tg > minTarget {
			p.CAS(&l.tgt, tg, half, lockapi.AcqRel)
		} else if tg > minTarget {
			p.CAS(&l.tgt, tg, minTarget, lockapi.AcqRel)
		}
		p.Store(&l.grow, 0, lockapi.Release)
		return
	}
	if g := p.Add(&l.grow, 1, lockapi.AcqRel); g >= growEvery {
		tg := p.Load(&l.tgt, lockapi.Acquire)
		if tg < uint64(l.o.Target) {
			p.CAS(&l.tgt, tg, tg+1, lockapi.AcqRel)
		}
		p.Store(&l.grow, 0, lockapi.Release)
	}
}

// maybeGrant recirculates one passive waiter after a release, if a slot is
// free: pick the designated cohort, pay its active slot, then advance its
// grant word. The grant CAS is validated against a freshly re-read
// ticket/grant pair so a drained queue can never be over-granted (which
// would leak an active slot). Losing the grant CAS to a self-admitting head
// returns the slot and retries, bounded by the cohort count.
func (l *Restricted) maybeGrant(p lockapi.Proc, a uint64) {
	// Refill the active set back up to the target, not just by one: parked
	// heads sleep until their wake slot is written, so a slot lost here (CAS
	// race, queue emptied between designation and grant) is only recovered
	// by a later grant. Granting a single waiter per release would let the
	// active set decay to one and stay there — the lock would serialize on
	// the grant chain no matter what the target says.
	for attempt := 0; attempt <= 2*(l.nodes+2); attempt++ {
		if a >= l.target(p) {
			return
		}
		des, qg, rs, viaRot, ok := l.designate(p, true, -1)
		if !ok {
			return
		}
		if !p.CAS(&l.active, a, a+1, lockapi.AcqRel) {
			a = p.Load(&l.active, lockapi.Acquire)
			continue
		}
		if p.CAS(&l.qgrant[des], qg, qg+1, lockapi.AcqRel) {
			// Wake exactly the granted waiter on its own line, then
			// promote the next head on its line: two single-sharer writes
			// instead of a broadcast to every parked waiter.
			l.pokeSlot(p, &l.wake[des][int(qg%uint64(l.slots))], qg+1)
			l.pokeSlot(p, &l.wake[des][int((qg+1)%uint64(l.slots))], qg+1)
			l.noteGrant(p, rs, des, viaRot)
			a = p.Load(&l.active, lockapi.Acquire)
			continue
		}
		a = p.Add(&l.active, ^uint64(0), lockapi.AcqRel)
	}
}

// Release implements lockapi.Lock: adapt the target from the observed hold
// time, release the inner lock, leave the active set, and recirculate one
// passive waiter into the freed slot.
func (l *Restricted) Release(p lockapi.Proc, c lockapi.Ctx) {
	cc := c.(*ctx)
	l.adapt(p, cc)
	l.inner.Release(p, cc.inner)
	a := p.Add(&l.active, ^uint64(0), lockapi.Release)
	l.maybeGrant(p, a)
}

// TryAcquire implements lockapi.TryLocker: a bounded admission attempt that
// never jumps passive waiters — any occupied queue fails the try — followed
// by the inner lock's TryAcquire, with the active slot returned on failure
// so no residual state remains.
func (l *Restricted) TryAcquire(p lockapi.Proc, c lockapi.Ctx) bool {
	if !lockapi.SupportsTry(l.inner) {
		return false
	}
	cc := c.(*ctx)
	for n := 0; n < l.nodes; n++ {
		t := p.Load(&l.qticket[n], lockapi.Acquire)
		g := p.Load(&l.qgrant[n], lockapi.Acquire)
		if t > g {
			return false
		}
	}
	a := p.Load(&l.active, lockapi.Acquire)
	if a >= l.target(p) {
		return false
	}
	if !p.CAS(&l.active, a, a+1, lockapi.AcqRel) {
		return false
	}
	if !l.inner.(lockapi.TryLocker).TryAcquire(p, cc.inner) {
		p.Add(&l.active, ^uint64(0), lockapi.AcqRel)
		return false
	}
	if tp, ok := p.(interface{ Time() int64 }); ok {
		cc.acquiredAt, cc.timed = tp.Time(), true
	} else {
		cc.timed = false
	}
	return true
}

// TrySupported implements lockapi.TryInfo: the wrapper supports trylock
// exactly when the inner lock does.
func (l *Restricted) TrySupported() bool { return lockapi.SupportsTry(l.inner) }

var (
	_ lockapi.Lock      = (*Restricted)(nil)
	_ lockapi.TryLocker = (*Restricted)(nil)
	_ lockapi.TryInfo   = (*Restricted)(nil)
)
