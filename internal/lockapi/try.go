package lockapi

// This file extends the lock interface with the *bounded acquire* surface
// that fault-injected runs use for abandoned acquires (internal/faultinject,
// driven by internal/workload): a non-blocking TryAcquire capability, a
// runtime capability flag for locks that support it only conditionally, the
// one bounded try loop, and the bounded exponential-backoff helper that the
// backoff-family locks build on.

import "github.com/clof-go/clof/internal/xrand"

// TryLocker is implemented by locks that support a non-blocking acquire.
//
// TryAcquire performs a bounded number of memory operations and never calls
// Proc.Spin. On success the caller holds the lock exactly as after Acquire
// and must release it with Release using the same Ctx. On failure the lock's
// shared state is semantically unchanged: in particular no queue node
// remains published, so the failed caller may walk away (an "abandoned
// acquire") without ever touching the lock again — the property
// AcquireBounded's callers rely on.
//
// Locks whose support is conditional (CLoF compositions: every component
// lock must itself support trylock; wrappers: the inner lock must) also
// implement TryInfo; callers must consult SupportsTry rather than
// type-asserting TryLocker directly.
type TryLocker interface {
	TryAcquire(p Proc, c Ctx) bool
}

// TryInfo reports at runtime whether a TryLocker's TryAcquire is usable on
// this instance: compositions and wrappers whose capability depends on the
// locks they are built from. It is the one conditional capability — locks
// that can never try (CLH, HMCS) simply have no TryAcquire.
type TryInfo interface {
	TrySupported() bool
}

// SupportsTry reports whether l supports non-blocking acquisition: false
// unless l is a TryLocker, then the TryInfo answer when the lock provides
// one.
func SupportsTry(l Lock) bool {
	if _, ok := l.(TryLocker); !ok {
		return false
	}
	ti, ok := l.(TryInfo)
	return !ok || ti.TrySupported()
}

// DefaultBackoffCap is the spin cap an ExpBackoff with Cap==0 uses; it
// matches the historical cap of the BO lock.
const DefaultBackoffCap = 64

// ExpBackoff is the shared bounded exponential-backoff helper: each Pause
// spins (Proc.Spin) for a doubling number of iterations, never exceeding
// Cap per pause. The zero value starts at one spin and caps at
// DefaultBackoffCap. Callers may retarget Base/Cap between pauses (HBO does,
// by owner distance); the doubling progress is kept across such changes.
//
// A non-zero Seed enables deterministic jitter: each pause draws its spin
// count uniformly from the upper half of the doubling schedule's current
// value instead of using it exactly. Without jitter, waiters that entered a
// backoff loop together pause for identical counts and re-collide on the
// lock word in lock-step convoys (the failure mode the CR combinator's
// recirculation must avoid); with it, equal seeds still reproduce equal
// spin sequences, preserving the simulator's determinism contract.
//
// ExpBackoff is per-thread state and must not be shared.
type ExpBackoff struct {
	// Base is the first pause's spin count (minimum 1).
	Base int
	// Cap bounds the spins of a single pause (0 = DefaultBackoffCap).
	Cap int
	// Seed, when non-zero, turns on seeded jitter: pause i spins a
	// deterministic pseudo-random count in [ceil(n/2), n] where n is the
	// un-jittered count pause i would have used. Zero keeps the exact
	// doubling schedule.
	Seed uint64
	cur  int
	rng  *xrand.Rand
}

// Pause backs off once: Spin between Base and Cap times, then double the
// next pause. It returns the number of spins issued (tests assert the
// bound).
func (b *ExpBackoff) Pause(p Proc) int {
	base, lim := b.Base, b.Cap
	if base < 1 {
		base = 1
	}
	if lim <= 0 {
		lim = DefaultBackoffCap
	}
	if b.cur < base {
		b.cur = base
	}
	n := b.cur
	if n > lim {
		n = lim
	}
	// Grow from the issued (clamped) count so a Cap reduction takes effect
	// immediately and growth can never run away past 2*Cap. Jitter does not
	// feed back into the schedule: the doubling envelope stays identical
	// with and without it.
	b.cur = n * 2
	if b.Seed != 0 {
		if b.rng == nil {
			b.rng = xrand.New(b.Seed)
		}
		lo := (n + 1) / 2
		n = lo + b.rng.Intn(n-lo+1)
	}
	for i := 0; i < n; i++ {
		p.Spin()
	}
	return n
}

// Reset restarts the backoff sequence at Base. The jitter stream is not
// rewound: two waiters resetting at the same point still diverge afterwards,
// which is the point of jitter.
func (b *ExpBackoff) Reset() { b.cur = 0 }

// AcquireBounded tries to acquire l at most `attempts` times, calling pause
// between failed attempts, and reports whether it holds the lock. Callers
// consult SupportsTry first. A failed TryAcquire leaves no published state,
// so on false the caller may walk away: an abandoned acquire.
//
// pause is the caller's backoff. ExpBackoff.Pause spins, and backends that
// fast-forward spin waits (memsim, mcheck) may park a spinning pause until
// the lock's state next changes; workload.Run therefore pauses with local
// work, which keeps the thread live and the cost deterministic.
func AcquireBounded(l TryLocker, p Proc, c Ctx, attempts int, pause func()) bool {
	for i := 0; i < attempts; i++ {
		if l.TryAcquire(p, c) {
			return true
		}
		if i < attempts-1 {
			pause()
		}
	}
	return false
}
