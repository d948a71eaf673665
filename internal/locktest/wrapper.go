package locktest

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// WrapperConformance verifies that a combinator (a lock wrapping another
// lock — cr.Restrict, seqlock.Wrap) forwards the capabilities of the lock
// it wraps instead of silently narrowing them.
// base must be a fresh instance of the same type and configuration as the
// lock inside wrapped; both must be unheld. Waiter detection is not checked
// here: lockapi.WaiterDetector is a basic-lock capability that wrappers do
// not carry.
//
// Checked contracts:
//
//   - trylock capability equality: lockapi.SupportsTry answers the same for
//     wrapped and base — a wrapper may neither invent a try path its inner
//     lock cannot roll back, nor hide one it has;
//   - try behavior (when supported): uncontended success, failure while held
//     from a near and a far CPU, and no residual state after failures;
//   - reader-path forwarding: if base serves shared acquisitions
//     (lockapi.RWLocker), wrapped must too, and two shared holders must
//     coexist without blocking; if base serves optimistic reads
//     (lockapi.SeqReader), wrapped must too, an unheld read must sample
//     even and validate, and a write cycle must invalidate an earlier
//     sample (the version bump is forwarded).
func WrapperConformance(t testing.TB, mach *topo.Machine, wrapped, base lockapi.Lock) {
	t.Helper()

	if got, want := lockapi.SupportsTry(wrapped), lockapi.SupportsTry(base); got != want {
		t.Errorf("SupportsTry(wrapped) = %v, want %v (capability not forwarded)", got, want)
	}

	p0 := lockapi.NewNativeProc(0)

	// Reader-path forwarding: shared acquisitions (RWLocker) and optimistic
	// reads (SeqReader) must survive the wrapper.
	if _, ok := base.(lockapi.RWLocker); ok {
		rw, ok := wrapped.(lockapi.RWLocker)
		if !ok {
			t.Error("inner lock serves shared acquisitions but the wrapper dropped lockapi.RWLocker")
		} else {
			pb := lockapi.NewNativeProc(1)
			ca, cb := wrapped.NewCtx(), wrapped.NewCtx()
			// Two shared holders coexist: if the wrapper routed shared
			// acquisitions to the exclusive path this would deadlock.
			rw.AcquireShared(p0, ca)
			rw.AcquireShared(pb, cb)
			rw.ReleaseShared(pb, cb)
			rw.ReleaseShared(p0, ca)
			// The exclusive path still works after shared traffic.
			wrapped.Acquire(p0, ca)
			wrapped.Release(p0, ca)
		}
	}
	if _, ok := base.(lockapi.SeqReader); ok {
		sq, ok := wrapped.(lockapi.SeqReader)
		if !ok {
			t.Error("inner lock serves optimistic reads but the wrapper dropped lockapi.SeqReader")
		} else {
			s := sq.ReadSeq(p0)
			if s&1 != 0 {
				t.Errorf("ReadSeq sampled odd version %d on an unheld lock", s)
			}
			if !sq.ReadValidate(p0, s) {
				t.Error("ReadValidate failed with no intervening writer")
			}
			cs := wrapped.NewCtx()
			wrapped.Acquire(p0, cs)
			wrapped.Release(p0, cs)
			if sq.ReadValidate(p0, s) {
				t.Error("ReadValidate passed across a write cycle: the version bump is not forwarded")
			}
		}
	}

	// Try conformance.
	if lockapi.SupportsTry(wrapped) {
		tl := wrapped.(lockapi.TryLocker)
		ct := wrapped.NewCtx()
		if !tl.TryAcquire(p0, ct) {
			t.Fatal("TryAcquire failed on a free lock")
		}
		wrapped.Release(p0, ct)

		c0 := wrapped.NewCtx()
		wrapped.Acquire(p0, c0)
		for _, cpu := range []int{1, mach.NumCPUs() - 1} {
			pt := lockapi.NewNativeProc(cpu)
			cf := wrapped.NewCtx()
			for i := 0; i < 3; i++ {
				if tl.TryAcquire(pt, cf) {
					t.Fatalf("TryAcquire from CPU %d succeeded while held", cpu)
				}
			}
			// The failed context must be reusable once the lock frees.
			wrapped.Release(p0, c0)
			if !tl.TryAcquire(pt, cf) {
				t.Fatalf("TryAcquire from CPU %d failed on a free lock after earlier failures (residual state)", cpu)
			}
			wrapped.Release(pt, cf)
			wrapped.Acquire(p0, c0)
		}
		wrapped.Release(p0, c0)
	}
}
