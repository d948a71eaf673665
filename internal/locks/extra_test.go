package locks

import (
	"runtime"
	"sync"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

func TestQSpinUncontendedFastPath(t *testing.T) {
	l := NewQSpin()
	p := lockapi.NewNativeProc(0)
	ctx := l.NewCtx()
	for i := 0; i < 100; i++ {
		l.Acquire(p, ctx)
		if v := l.word.Raw().Load(); v&qLocked == 0 {
			t.Fatal("locked bit not set while held")
		}
		l.Release(p, ctx)
	}
	if v := l.word.Raw().Load(); v != 0 {
		t.Fatalf("word = %#x after uncontended use, want 0", v)
	}
}

func TestQSpinPendingPath(t *testing.T) {
	// One owner + one waiter must resolve through the pending bit without
	// any queue node traffic.
	l := NewQSpin()
	ctxA, ctxB := l.NewCtx(), l.NewCtx()
	pA := lockapi.NewNativeProc(0)
	l.Acquire(pA, ctxA)
	acquired := make(chan struct{})
	go func() {
		pB := lockapi.NewNativeProc(1)
		l.Acquire(pB, ctxB)
		close(acquired)
		l.Release(pB, ctxB)
	}()
	// Wait until the waiter set the pending bit.
	for l.word.Raw().Load()&qPending == 0 {
		runtime.Gosched()
	}
	l.Release(pA, ctxA)
	<-acquired
}

func TestQSpinDeepContention(t *testing.T) {
	l := NewQSpin()
	const workers, iters = 8, 3000
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
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
	if v := l.word.Raw().Load(); v != 0 {
		t.Fatalf("word = %#x after quiescence, want 0", v)
	}
}

func TestHBOBasics(t *testing.T) {
	m := topo.Armv8Server()
	l := NewHBO(m)
	p := lockapi.NewNativeProc(0)
	l.Acquire(p, nil)
	// The word must record the owner's NUMA node (+1).
	if v := l.word.Raw().Load(); v != 1 {
		t.Fatalf("word = %d while held by numa 0, want 1", v)
	}
	l.Release(p, nil)

	p2 := lockapi.NewNativeProc(100) // numa 3 on armv8
	l.Acquire(p2, nil)
	if v := l.word.Raw().Load(); v != 1+3 {
		t.Fatalf("word = %d while held by numa 3, want 4", v)
	}
	l.Release(p2, nil)
}

func TestHBOMutualExclusion(t *testing.T) {
	m := topo.Armv8Server()
	l := NewHBO(m)
	const workers, iters = 8, 2000
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(id * 16)
			for i := 0; i < iters; i++ {
				l.Acquire(p, nil)
				counter++
				l.Release(p, nil)
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
}
