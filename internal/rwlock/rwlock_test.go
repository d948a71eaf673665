package rwlock

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/mcheck"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/topo"
)

func TestSingleThreadedBothModes(t *testing.T) {
	m := topo.Armv8Server()
	l := New(m, topo.CacheGroup, locks.NewMCS())
	c := l.NewCtx()
	p := lockapi.NewNativeProc(0)
	for i := 0; i < 50; i++ {
		l.AcquireShared(p, nil)
		l.ReleaseShared(p, nil)
		l.Acquire(p, c)
		l.Release(p, c)
	}
}

// TestWriterExclusion: writers exclude everyone; readers overlap with each
// other (observed at least once).
func TestWriterExclusion(t *testing.T) {
	m := topo.Armv8Server()
	l := New(m, topo.CacheGroup, locks.NewMCS())
	const writers, readers, iters = 2, 6, 1500

	wctxs := make([]lockapi.Ctx, writers)
	for i := range wctxs {
		wctxs[i] = l.NewCtx()
	}

	var data int // writer-owned; readers snapshot it twice per section
	var inReaders atomic.Int64
	var sawConcurrentReaders atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(id * 8)
			for i := 0; i < iters; i++ {
				l.Acquire(p, wctxs[id])
				data++ // unprotected increment: lost updates reveal overlap
				l.Release(p, wctxs[id])
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(id*16 + 4)
			for i := 0; i < iters; i++ {
				l.AcquireShared(p, nil)
				if inReaders.Add(1) > 1 {
					sawConcurrentReaders.Store(true)
				}
				before := data
				after := data
				if before != after {
					t.Error("writer mutated data during a read section")
				}
				inReaders.Add(-1)
				l.ReleaseShared(p, nil)
			}
		}(r)
	}
	wg.Wait()
	if data != writers*iters {
		t.Errorf("data = %d, want %d (writer-writer overlap)", data, writers*iters)
	}
	if !sawConcurrentReaders.Load() {
		t.Log("note: no reader overlap observed (scheduling-dependent, not a failure)")
	}
}

// TestReadSideLocalityOnSimulator: under a read-mostly load, each cohort's
// readers touch only their own counter line — reader throughput must scale
// far beyond a single exclusive lock's.
func TestReadSideLocalityOnSimulator(t *testing.T) {
	mach := topo.Armv8Server()
	run := func(readOnly bool) uint64 {
		sim := memsim.New(memsim.Config{Machine: mach})
		l := New(mach, topo.CacheGroup, locks.NewMCS())
		excl := locks.NewMCS()
		exclCtxs := make([]lockapi.Ctx, 16)
		for i := range exclCtxs {
			exclCtxs[i] = excl.NewCtx()
		}
		var total uint64
		for i := 0; i < 16; i++ {
			i := i
			sim.Spawn(i*8, func(p *memsim.Proc) {
				for !p.Expired() {
					if readOnly {
						l.AcquireShared(p, nil)
						p.Work(100)
						l.ReleaseShared(p, nil)
					} else {
						excl.Acquire(p, exclCtxs[i])
						p.Work(100)
						excl.Release(p, exclCtxs[i])
					}
					p.Work(100)
					total++
				}
			})
		}
		sim.Run(200_000)
		return total
	}
	rw := run(true)
	mutex := run(false)
	if rw < 3*mutex {
		t.Errorf("read-side scaling too weak: rwlock %d vs mutex %d iterations", rw, mutex)
	}
}

// TestVerifiedWithModelChecker: 1 writer + 2 readers, exhaustively: the
// writer's section excludes readers and vice versa, on SC and the weak
// memory mode.
func TestVerifiedWithModelChecker(t *testing.T) {
	mach := mcheck.VerifyMachine()
	prog := mcheck.Program{
		Name: "rwlock-1w2r",
		Make: func() []func(p *mcheck.Proc) {
			l := New(mach, topo.CacheGroup, locks.NewTicket())
			wctx := l.NewCtx()
			wflag := &lockapi.Cell{}
			writer := func(p *mcheck.Proc) {
				for i := 0; i < 2; i++ {
					l.Acquire(p, wctx)
					p.EnterCS()
					p.Store(wflag, 1, lockapi.Relaxed)
					p.Store(wflag, 0, lockapi.Relaxed)
					p.ExitCS()
					l.Release(p, wctx)
				}
			}
			reader := func(p *mcheck.Proc) {
				l.AcquireShared(p, nil)
				v := p.Load(wflag, lockapi.Relaxed)
				p.Assert(v == 0, "reader observed a writer mid-section")
				l.ReleaseShared(p, nil)
			}
			return []func(p *mcheck.Proc){writer, reader, reader}
		},
	}
	for _, mode := range []mcheck.Mode{mcheck.SC, mcheck.WMM} {
		res := mcheck.Check(prog, mcheck.Config{Mode: mode})
		if !res.OK {
			t.Fatalf("%v: %s (witness %v)", mode, res.Violation, res.Witness)
		}
		t.Logf("%v: %d states, %d executions", mode, res.States, res.Executions)
	}
}

// TestWriterPreference: a continuous stream of readers must not starve a
// writer (the back-off on writerActive yields to it).
func TestWriterPreference(t *testing.T) {
	m := topo.Armv8Server()
	l := New(m, topo.CacheGroup, locks.NewMCS())
	c := l.NewCtx()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(id * 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.AcquireShared(p, nil)
				l.ReleaseShared(p, nil)
			}
		}(r)
	}
	p := lockapi.NewNativeProc(100)
	for i := 0; i < 50; i++ {
		l.Acquire(p, c) // must complete despite the reader stream
		l.Release(p, c)
	}
	close(stop)
	wg.Wait()
}

// TestAdaptedExclusiveMutex: the lock driven through the lockapi.Lock
// interface, as the catalog serves it, is a proper mutex (an unprotected
// counter sees no lost updates).
func TestAdaptedExclusiveMutex(t *testing.T) {
	m := topo.Armv8Server()
	var a lockapi.Lock = New(m, topo.CacheGroup, locks.NewMCS())
	const workers, iters = 4, 2000
	ctxs := make([]lockapi.Ctx, workers)
	for i := range ctxs {
		ctxs[i] = a.NewCtx()
	}
	var data int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(id * 4)
			for i := 0; i < iters; i++ {
				a.Acquire(p, ctxs[id])
				data++
				a.Release(p, ctxs[id])
			}
		}(w)
	}
	wg.Wait()
	if data != workers*iters {
		t.Fatalf("lost updates: %d, want %d", data, workers*iters)
	}
}

// TestAdaptedSharedExcludesWriter: driven through the lockapi.RWLocker
// interface, shared holders block the exclusive path and overlap each other.
func TestAdaptedSharedExcludesWriter(t *testing.T) {
	m := topo.Armv8Server()
	var a lockapi.RWLocker = New(m, topo.CacheGroup, locks.NewMCS())
	wctx := a.NewCtx()

	var inReaders, maxReaders atomic.Int64
	var data int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := lockapi.NewNativeProc(0)
		for i := 0; i < 500; i++ {
			a.Acquire(p, wctx)
			if inReaders.Load() != 0 {
				t.Error("writer held concurrently with a reader")
			}
			data++
			a.Release(p, wctx)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(8 + id*4)
			for i := 0; i < 2000; i++ {
				a.AcquireShared(p, nil)
				n := inReaders.Add(1)
				for {
					old := maxReaders.Load()
					if n <= old || maxReaders.CompareAndSwap(old, n) {
						break
					}
				}
				_ = data
				inReaders.Add(-1)
				a.ReleaseShared(p, nil)
			}
		}(r)
	}
	wg.Wait()
	if maxReaders.Load() < 2 {
		t.Logf("readers never observed overlapping (max %d) — legal but unusual", maxReaders.Load())
	}
}
