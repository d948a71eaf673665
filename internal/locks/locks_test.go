package locks

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// stress runs `workers` goroutines, each performing `iters` critical
// sections incrementing an unprotected counter. Any mutual-exclusion
// violation shows up as a lost update (and as a data race under -race).
func stress(t *testing.T, mk func() lockapi.Lock, workers, iters int) {
	t.Helper()
	l := mk()
	ctxs := make([]lockapi.Ctx, workers)
	for i := range ctxs {
		ctxs[i] = l.NewCtx()
	}
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(id)
			for i := 0; i < iters; i++ {
				l.Acquire(p, ctxs[id])
				counter++
				l.Release(p, ctxs[id])
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*iters {
		t.Errorf("counter = %d, want %d (mutual exclusion violated)", counter, workers*iters)
	}
}

func TestAllLocksMutualExclusion(t *testing.T) {
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers > 16 {
		workers = 16
	}
	for _, name := range Names() {
		typ := MustType(name)
		t.Run(name, func(t *testing.T) {
			stress(t, typ.New, workers, 2000)
		})
	}
}

func TestAllLocksSingleThreaded(t *testing.T) {
	p := lockapi.NewNativeProc(0)
	for _, name := range Names() {
		typ := MustType(name)
		t.Run(name, func(t *testing.T) {
			l := typ.New()
			ctx := l.NewCtx()
			for i := 0; i < 100; i++ {
				l.Acquire(p, ctx)
				l.Release(p, ctx)
			}
		})
	}
}

// TestThreadObliviousness: a lock acquired by one thread must be releasable
// by another thread using the same context (required for CLoF's
// lock-passing, §4.1.3). Ticket, MCS, CLH and Hemlock all must support this.
func TestThreadObliviousness(t *testing.T) {
	for _, name := range []string{"tkt", "mcs", "clh", "hem", "hem-ctr"} {
		typ := MustType(name)
		t.Run(name, func(t *testing.T) {
			l := typ.New()
			ctxA := l.NewCtx()
			ctxB := l.NewCtx()
			pMain := lockapi.NewNativeProc(0)

			l.Acquire(pMain, ctxA) // thread 0 acquires with ctxA

			// Thread 1 queues up behind us with ctxB.
			acquired := make(chan struct{})
			done := make(chan struct{})
			go func() {
				p := lockapi.NewNativeProc(1)
				l.Acquire(p, ctxB)
				close(acquired)
				l.Release(p, ctxB)
				close(done)
			}()

			// Thread 2 releases with ctxA (not the acquiring thread).
			rel := make(chan struct{})
			go func() {
				p := lockapi.NewNativeProc(2)
				l.Release(p, ctxA)
				close(rel)
			}()
			<-rel
			<-acquired
			<-done
		})
	}
}

func TestTicketHasWaiters(t *testing.T) {
	l := NewTicket()
	p := lockapi.NewNativeProc(0)
	l.Acquire(p, nil)
	if l.HasWaiters(p, nil) {
		t.Error("HasWaiters true with no waiters")
	}
	queued := make(chan struct{})
	done := make(chan struct{})
	go func() {
		p2 := lockapi.NewNativeProc(1)
		// Manually take a ticket so the waiter is visible before blocking.
		close(queued)
		l.Acquire(p2, nil)
		l.Release(p2, nil)
		close(done)
	}()
	<-queued
	// Wait until the waiter's ticket is visible.
	for !l.HasWaiters(p, nil) {
		runtime.Gosched()
	}
	l.Release(p, nil)
	<-done
}

func TestMCSHasWaiters(t *testing.T) {
	l := NewMCS()
	ctxA := l.NewCtx()
	ctxB := l.NewCtx()
	p := lockapi.NewNativeProc(0)
	l.Acquire(p, ctxA)
	if l.HasWaiters(p, ctxA) {
		t.Error("HasWaiters true with empty queue")
	}
	done := make(chan struct{})
	go func() {
		p2 := lockapi.NewNativeProc(1)
		l.Acquire(p2, ctxB)
		l.Release(p2, ctxB)
		close(done)
	}()
	for !l.HasWaiters(p, ctxA) {
		runtime.Gosched()
	}
	l.Release(p, ctxA)
	<-done
}

// TestCLHNodeRecycling checks the node-stealing invariant: after k
// uncontended acquire/release pairs the context's node handle must cycle
// between its own node and the dummy, never aliasing another live node.
func TestCLHNodeRecycling(t *testing.T) {
	l := NewCLH()
	ctx := l.NewCtx().(*clhCtx)
	p := lockapi.NewNativeProc(0)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		l.Acquire(p, ctx)
		seen[ctx.node] = true
		l.Release(p, ctx)
	}
	if len(seen) > 2 {
		t.Errorf("uncontended CLH used %d distinct nodes, want <= 2", len(seen))
	}
}

func TestHemlockCTRFlag(t *testing.T) {
	if !NewHemlock(true).ctr || NewHemlock(false).ctr {
		t.Error("CTR flag not preserved")
	}
	if NewHemlock(false).id == 0 {
		t.Error("Hemlock id must be non-zero (0 means \"no lock passing\")")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		typ, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) failed for a registered name", name)
		}
		if typ.New() == nil {
			t.Fatalf("%s: New returned nil", name)
		}
	}
	if _, ok := ByName("qspinlock"); ok {
		t.Error("ByName accepted an unregistered name")
	}
}

func TestBasicLocksPerArch(t *testing.T) {
	x86 := BasicLocks(topo.X86)
	arm := BasicLocks(topo.ArmV8)
	if len(x86) != 4 || len(arm) != 4 {
		t.Fatalf("BasicLocks must return the paper's 4 locks, got %d/%d", len(x86), len(arm))
	}
	wantNames := []string{"tkt", "mcs", "clh", "hem"}
	for i, want := range wantNames {
		if x86[i].Name != want || arm[i].Name != want {
			t.Errorf("BasicLocks[%d] = %s/%s, want %s", i, x86[i].Name, arm[i].Name, want)
		}
	}
	// The hem entry must have CTR enabled on x86 and disabled on Armv8.
	if !x86[3].New().(*Hemlock).ctr {
		t.Error("x86 hem must enable CTR")
	}
	if arm[3].New().(*Hemlock).ctr {
		t.Error("armv8 hem must disable CTR")
	}
}

// TestAcquireReleaseSequenceProperty: any interleaving of sequential
// acquire/release pairs across a random subset of contexts keeps the lock
// consistent (single-threaded linearization property).
func TestAcquireReleaseSequenceProperty(t *testing.T) {
	p := lockapi.NewNativeProc(0)
	for _, name := range []string{"mcs", "clh", "hem", "tkt"} {
		typ := MustType(name)
		f := func(choices []uint8) bool {
			l := typ.New()
			ctxs := []lockapi.Ctx{l.NewCtx(), l.NewCtx(), l.NewCtx()}
			for _, ch := range choices {
				c := ctxs[int(ch)%len(ctxs)]
				l.Acquire(p, c)
				l.Release(p, c)
			}
			return true // reaching here without hanging is the property
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMustTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustType did not panic on unknown name")
		}
	}()
	MustType("no-such-lock")
}
