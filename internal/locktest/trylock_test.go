package locktest_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// TestTryAcquireConformance drives every catalog lock through the TryLocker
// contract (lockapi.TryLocker): a lock either declines the capability via
// SupportsTry, or its TryAcquire must (1) succeed uncontended, (2) fail
// while the lock is held — from both a near and a far CPU, so hierarchical
// locks exercise their multi-level rollback — and (3) leave no residual
// published state on failure: after the holder releases, a plain Acquire
// with a fresh context must go straight through (a leaked queue node would
// deadlock here), and the failed context itself must be able to try again
// successfully.
func TestTryAcquireConformance(t *testing.T) {
	m := topo.X86Server()
	farCPU := m.NumCPUs() - 1
	for _, e := range catalog.Locks() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			l := e.New(m)
			if !lockapi.SupportsTry(l) {
				// No try path: CLH's ABA hazard and HMCS's
				// non-rollbackable tree climb (see their type docs), or a
				// composition over one.
				t.Logf("%s declines TryAcquire (documented)", e.Name)
				return
			}
			tl := l.(lockapi.TryLocker)

			// (1) Uncontended success.
			p0 := lockapi.NewNativeProc(0)
			c0 := l.NewCtx()
			if !tl.TryAcquire(p0, c0) {
				t.Fatal("TryAcquire failed on a free lock")
			}
			l.Release(p0, c0)

			// (2) Failure while held, near and far; (3) no residual state.
			l.Acquire(p0, c0)
			for _, cpu := range []int{1, farCPU} {
				pt := lockapi.NewNativeProc(cpu)
				ct := l.NewCtx()
				for i := 0; i < 3; i++ {
					if tl.TryAcquire(pt, ct) {
						t.Fatalf("TryAcquire from CPU %d succeeded while held (mutual-exclusion hole)", cpu)
					}
				}
				// The failed context must be reusable once the lock frees.
				l.Release(p0, c0)
				if !tl.TryAcquire(pt, ct) {
					t.Fatalf("TryAcquire from CPU %d failed on a free lock after earlier failures (residual state)", cpu)
				}
				l.Release(pt, ct)
				l.Acquire(p0, c0)
			}
			l.Release(p0, c0)

			// (3b) A blocking Acquire with a fresh context must not hang on
			// anything a failed try left behind.
			pf := lockapi.NewNativeProc(2)
			cf := l.NewCtx()
			l.Acquire(pf, cf)
			l.Release(pf, cf)
		})
	}
}

// TestTryAcquireNoExclusionHole stresses every try-capable catalog lock with
// a mix of blocking and bounded acquires under the race detector: half the
// workers Acquire, half AcquireBounded (abandoning on failure). The
// unprotected counter must come out at exactly the number of successful
// entries — a TryAcquire that "fails" while actually having published state
// (or that succeeds without excluding) shows up as a lost update or a -race
// report.
func TestTryAcquireNoExclusionHole(t *testing.T) {
	const workers, iters = 8, 400
	m := topo.X86Server()
	for _, e := range catalog.Locks() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			l := e.New(m)
			if !lockapi.SupportsTry(l) {
				t.Skipf("%s declines TryAcquire", e.Name)
			}
			tl := l.(lockapi.TryLocker)
			cpus := topo.MustPlacement(m, workers)
			ctxs := make([]lockapi.Ctx, workers)
			for i := range ctxs {
				ctxs[i] = l.NewCtx()
			}
			var counter uint64 // lock-protected
			var abandoned uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					p := lockapi.NewNativeProc(cpus[id])
					for i := 0; i < iters; i++ {
						if id%2 == 0 {
							l.Acquire(p, ctxs[id])
						} else {
							var bo lockapi.ExpBackoff
							if !lockapi.AcquireBounded(tl, p, ctxs[id], 3, func() { bo.Pause(p) }) {
								atomic.AddUint64(&abandoned, 1)
								continue
							}
						}
						counter++
						l.Release(p, ctxs[id])
					}
				}(w)
			}
			wg.Wait()
			want := uint64(workers*iters) - abandoned
			if counter != want {
				t.Errorf("counter = %d, want %d (%d abandoned): exclusion hole", counter, want, abandoned)
			}
		})
	}
}
