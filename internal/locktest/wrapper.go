package locktest

import (
	"sync/atomic"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// edgeCounter is the balance oracle for observer pass-through: every
// acquire-start must be matched by exactly one acquired and one released
// edge. Counters are atomic because conformance runs attach it while a
// second thread contends.
type edgeCounter struct {
	start, acquired, released uint64
}

func (e *edgeCounter) AcquireStart(lockapi.Proc) { atomic.AddUint64(&e.start, 1) }
func (e *edgeCounter) Acquired(lockapi.Proc)     { atomic.AddUint64(&e.acquired, 1) }
func (e *edgeCounter) Released(lockapi.Proc)     { atomic.AddUint64(&e.released, 1) }

func (e *edgeCounter) counts() (s, a, r uint64) {
	return atomic.LoadUint64(&e.start), atomic.LoadUint64(&e.acquired), atomic.LoadUint64(&e.released)
}

// WrapperConformance verifies that a combinator (a lock wrapping another
// lock — cr.Restrict, seqlock.Wrap, an instrumentation shim) forwards the
// capabilities of the lock it wraps instead of silently narrowing them.
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
//   - fairness monotonicity: a wrapper must not declare Fair over an unfair
//     inner lock (the converse is allowed — wrappers may forfeit fairness);
//   - reader-path forwarding: if base serves shared acquisitions
//     (lockapi.RWLocker), wrapped must too, two shared holders must coexist
//     without blocking, and shared acquisitions must emit no observer edges
//     (the obs layer's handover reconstruction assumes mutual exclusion);
//     if base serves optimistic reads (lockapi.SeqReader), wrapped must
//     too, an unheld read must sample even and validate, and a write cycle
//     must invalidate an earlier sample (the version bump is forwarded);
//   - observer pass-through: wrapped must implement lockapi.Instrumented,
//     and its edge stream must stay balanced (starts == acquireds ==
//     releaseds) across blocking cycles, successful tries, and failed tries
//     (a failed try emits nothing).
func WrapperConformance(t testing.TB, mach *topo.Machine, wrapped, base lockapi.Lock) {
	t.Helper()

	if got, want := lockapi.SupportsTry(wrapped), lockapi.SupportsTry(base); got != want {
		t.Errorf("SupportsTry(wrapped) = %v, want %v (capability not forwarded)", got, want)
	}
	if lockapi.Fair(wrapped) && !lockapi.Fair(base) {
		t.Error("wrapper declares Fair over an unfair inner lock")
	}

	in, ok := wrapped.(lockapi.Instrumented)
	if !ok {
		t.Fatal("wrapper does not implement lockapi.Instrumented")
	}
	edges := &edgeCounter{}
	in.Instrument(edges)
	defer in.Instrument(nil)

	// Blocking cycles keep the edge stream balanced.
	const cycles = 16
	p0 := lockapi.NewNativeProc(0)
	c0 := wrapped.NewCtx()
	for i := 0; i < cycles; i++ {
		wrapped.Acquire(p0, c0)
		wrapped.Release(p0, c0)
	}
	if s, a, r := edges.counts(); s != cycles || a != cycles || r != cycles {
		t.Errorf("edge counts after %d blocking cycles = (%d,%d,%d), want balanced", cycles, s, a, r)
	}

	// Reader-path forwarding: shared acquisitions (RWLocker) and optimistic
	// reads (SeqReader) must survive the wrapper.
	if _, ok := base.(lockapi.RWLocker); ok {
		rw, ok := wrapped.(lockapi.RWLocker)
		if !ok {
			t.Error("inner lock serves shared acquisitions but the wrapper dropped lockapi.RWLocker")
		} else {
			s0, a0, r0 := edges.counts()
			pb := lockapi.NewNativeProc(1)
			ca, cb := wrapped.NewCtx(), wrapped.NewCtx()
			// Two shared holders coexist: if the wrapper routed shared
			// acquisitions to the exclusive path this would deadlock.
			rw.AcquireShared(p0, ca)
			rw.AcquireShared(pb, cb)
			rw.ReleaseShared(pb, cb)
			rw.ReleaseShared(p0, ca)
			if s, a, r := edges.counts(); s != s0 || a != a0 || r != r0 {
				t.Errorf("shared acquisitions emitted observer edges (+%d,+%d,+%d); the obs layer assumes exclusive-only edges",
					s-s0, a-a0, r-r0)
			}
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

	// Try conformance and try-edge balance.
	if lockapi.SupportsTry(wrapped) {
		tl := wrapped.(lockapi.TryLocker)
		s0, a0, r0 := edges.counts()

		ct := wrapped.NewCtx()
		if !tl.TryAcquire(p0, ct) {
			t.Fatal("TryAcquire failed on a free lock")
		}
		wrapped.Release(p0, ct)
		if s, a, r := edges.counts(); s != s0+1 || a != a0+1 || r != r0+1 {
			t.Errorf("successful try edges = (%d,%d,%d), want (%d,%d,%d)", s, a, r, s0+1, a0+1, r0+1)
		}

		wrapped.Acquire(p0, c0)
		s1, a1, r1 := edges.counts()
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
		// Failed tries must not have emitted edges; the loop above did 2
		// successful tries and 2 release/reacquire swaps, nothing else.
		if s, a, r := edges.counts(); s-s1 != 4 || a-a1 != 4 || r-r1 != 4 {
			t.Errorf("held-phase edge deltas = (%d,%d,%d), want (4,4,4): failed tries leaked edges", s-s1, a-a1, r-r1)
		}
		wrapped.Release(p0, c0)
	} else if supported, acquired := lockapi.TryAcquire(wrapped, p0, wrapped.NewCtx()); supported || acquired {
		t.Errorf("SupportsTry = false but TryAcquire reported (%v,%v)", supported, acquired)
	}

	// Whole-run balance: every start matched by one acquired and one
	// released, no edge invented or dropped anywhere above.
	if s, a, r := edges.counts(); s != a || a != r {
		t.Errorf("final edge counts = (%d,%d,%d), want balanced", s, a, r)
	}
}
