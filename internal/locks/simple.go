package locks

import (
	"github.com/clof-go/clof/internal/lockapi"
)

// TAS is the test-and-set spinlock: a single word swapped to 1 on acquire.
// Every acquisition attempt is a read-for-ownership, so contended TAS
// generates maximal coherence traffic. Unfair (no admission order).
type TAS struct {
	word lockapi.Cell
}

// NewTAS returns an unheld test-and-set lock.
func NewTAS() *TAS { return &TAS{} }

// NewCtx implements lockapi.Lock; TAS needs no context.
func (l *TAS) NewCtx() lockapi.Ctx { return nil }

// Acquire implements lockapi.Lock.
func (l *TAS) Acquire(p lockapi.Proc, _ lockapi.Ctx) {
	for p.Swap(&l.word, 1, lockapi.Acquire) == 1 {
		p.Spin()
	}
}

// TryAcquire implements lockapi.TryLocker: one CAS, no waiting.
func (l *TAS) TryAcquire(p lockapi.Proc, _ lockapi.Ctx) bool {
	return p.CAS(&l.word, 0, 1, lockapi.Acquire)
}

// Release implements lockapi.Lock.
func (l *TAS) Release(p lockapi.Proc, _ lockapi.Ctx) {
	p.Store(&l.word, 0, lockapi.Release)
}

// TTAS is the test-and-test-and-set spinlock: waiters spin with plain loads
// (staying in shared state) and only attempt the CAS when the lock looks
// free, which reduces — but does not eliminate — the release storm. Unfair.
type TTAS struct {
	word lockapi.Cell
}

// NewTTAS returns an unheld test-and-test-and-set lock.
func NewTTAS() *TTAS { return &TTAS{} }

// NewCtx implements lockapi.Lock; TTAS needs no context.
func (l *TTAS) NewCtx() lockapi.Ctx { return nil }

// Acquire implements lockapi.Lock.
func (l *TTAS) Acquire(p lockapi.Proc, _ lockapi.Ctx) {
	for {
		//lint:order relaxed-ok TTAS peek only; the CAS below provides Acquire on the winning entry
		for p.Load(&l.word, lockapi.Relaxed) == 1 {
			p.Spin()
		}
		if p.CAS(&l.word, 0, 1, lockapi.Acquire) {
			return
		}
	}
}

// TryAcquire implements lockapi.TryLocker: one CAS, no waiting.
func (l *TTAS) TryAcquire(p lockapi.Proc, _ lockapi.Ctx) bool {
	return p.CAS(&l.word, 0, 1, lockapi.Acquire)
}

// Release implements lockapi.Lock.
func (l *TTAS) Release(p lockapi.Proc, _ lockapi.Ctx) {
	p.Store(&l.word, 0, lockapi.Release)
}

// Backoff is TTAS with bounded exponential backoff (Agarwal & Cherian [1]),
// the "BO" lock that lock cohorting composes in C-BO-MCS. Backoff trades
// fairness and worst-case latency for reduced coherence traffic. Unfair.
type Backoff struct {
	word lockapi.Cell
	// maxDelay bounds the backoff in Spin() hints per failed attempt.
	maxDelay int
}

// NewBackoff returns an unheld backoff lock with the default delay cap.
func NewBackoff() *Backoff { return &Backoff{maxDelay: 64} }

// NewCtx implements lockapi.Lock; Backoff needs no context.
func (l *Backoff) NewCtx() lockapi.Ctx { return nil }

// Acquire implements lockapi.Lock.
func (l *Backoff) Acquire(p lockapi.Proc, _ lockapi.Ctx) {
	bo := lockapi.ExpBackoff{Base: 1, Cap: l.maxDelay}
	for {
		//lint:order relaxed-ok backoff peek only; the CAS below provides Acquire on the winning entry
		for p.Load(&l.word, lockapi.Relaxed) == 1 {
			bo.Pause(p)
		}
		if p.CAS(&l.word, 0, 1, lockapi.Acquire) {
			return
		}
	}
}

// TryAcquire implements lockapi.TryLocker: one CAS, no backoff.
func (l *Backoff) TryAcquire(p lockapi.Proc, _ lockapi.Ctx) bool {
	return p.CAS(&l.word, 0, 1, lockapi.Acquire)
}

// Release implements lockapi.Lock.
func (l *Backoff) Release(p lockapi.Proc, _ lockapi.Ctx) {
	p.Store(&l.word, 0, lockapi.Release)
}

var (
	_ lockapi.Lock      = (*TAS)(nil)
	_ lockapi.Lock      = (*TTAS)(nil)
	_ lockapi.Lock      = (*Backoff)(nil)
	_ lockapi.TryLocker = (*TAS)(nil)
	_ lockapi.TryLocker = (*TTAS)(nil)
	_ lockapi.TryLocker = (*Backoff)(nil)
)
