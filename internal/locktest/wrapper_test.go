package locktest_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/cr"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/locktest"
	"github.com/clof-go/clof/internal/rwlock"
	"github.com/clof-go/clof/internal/seqlock"
	"github.com/clof-go/clof/internal/topo"
)

// TestCRWrapperConformance runs the wrapper-conformance harness for
// cr.Restrict over every exclusive catalog lock: whatever trylock capability
// (or its absence) the inner lock has, the restricted variant must forward
// it. This is the regression gate for
// combinators narrowing the capability surface, which would silently change
// which code paths chaos sweeps exercise. Restrict refuses the
// reader-capable families (seq, rwlock) instead of forwarding their read
// paths; for those entries the subtest checks the refusal and that it names
// the stacking to use instead.
func TestCRWrapperConformance(t *testing.T) {
	m := topo.X86Server()
	for _, e := range catalog.Locks() {
		e := e
		t.Run("cr_over_"+e.Name, func(t *testing.T) {
			if e.Family == "seq" || e.Family == "rwlock" {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "seq:cr:") {
						t.Errorf("cr.Restrict over a reader-capable lock: panic %q, want a refusal naming seq:cr:", msg)
					}
				}()
				cr.Restrict(m, e.New(m), cr.Opts{})
				return
			}
			wrapped := cr.Restrict(m, e.New(m), cr.Opts{})
			locktest.WrapperConformance(t, m, wrapped, e.New(m))
		})
	}
}

// TestSeqWrapperConformance runs the same harness for seqlock.Wrap over
// every catalog lock: the version-bump wrapper must forward trylock, the
// reader-writer path (rwlock family), and — being the seq:
// family itself — serve a correct validated-read protocol.
func TestSeqWrapperConformance(t *testing.T) {
	m := topo.X86Server()
	for _, e := range catalog.Locks() {
		e := e
		t.Run("seq_over_"+e.Name, func(t *testing.T) {
			wrapped := seqlock.Wrap(e.New(m))
			locktest.WrapperConformance(t, m, wrapped, e.New(m))
		})
	}
}

// TestRWLockAdapterConformance pins the rwlock itself through the shared
// harness (against a fresh instance of its own configuration): it is the
// catalog's one native RWLocker, so this is where the
// shared-holders-coexist contract is anchored before any wrapper builds on
// it.
func TestRWLockAdapterConformance(t *testing.T) {
	m := topo.X86Server()
	mk := func() *rwlock.RWLock {
		return rwlock.New(m, topo.CacheGroup, locks.NewMCS())
	}
	locktest.WrapperConformance(t, m, mk(), mk())
}

// TestWaiterDetectionHonest: every lock whose method set has
// lockapi.WaiterDetector — the catalog entries and every seq:/cr: stacking
// over them that the catalog accepts — must honour it: HasWaiters reports
// false on an uncontended hold and true once a waiter is parked. CLoF
// consults the capability with a bare type assertion, so a wrapper that
// kept the method over a lock unable to detect would break here (with a
// panic, or a wrong answer) instead of inside a composition.
func TestWaiterDetectionHonest(t *testing.T) {
	m := topo.X86Server()
	var es []catalog.Entry
	for _, e := range catalog.Locks() {
		es = append(es, e)
		for _, prefix := range []string{"seq:", "cr:"} {
			if w, err := catalog.Lookup(prefix + e.Name); err == nil {
				es = append(es, w)
			}
		}
	}
	detectors := 0
	for _, e := range es {
		l := e.New(m)
		wd, ok := l.(lockapi.WaiterDetector)
		if !ok {
			continue
		}
		detectors++
		t.Run(e.Name, func(t *testing.T) {
			p0 := lockapi.NewNativeProc(0)
			c0, cw := l.NewCtx(), l.NewCtx()
			l.Acquire(p0, c0)
			if wd.HasWaiters(p0, c0) {
				t.Error("HasWaiters = true with no waiters")
			}
			waiterDone := make(chan struct{})
			go func() {
				defer close(waiterDone)
				pw := lockapi.NewNativeProc(1)
				l.Acquire(pw, cw)
				l.Release(pw, cw)
			}()
			deadline := time.Now().Add(5 * time.Second)
			for !wd.HasWaiters(p0, c0) {
				if time.Now().After(deadline) {
					t.Error("HasWaiters never saw the parked waiter")
					break
				}
				runtime.Gosched()
			}
			l.Release(p0, c0)
			<-waiterDone
		})
	}
	if detectors == 0 {
		t.Fatal("no catalog lock detects waiters; the custom has_waiters path is untested")
	}
}
