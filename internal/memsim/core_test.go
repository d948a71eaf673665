package memsim

import (
	"runtime"
	"testing"
	"time"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// TestShutdownReleasesCoroutines runs 8 threads to each way a run can end
// and requires every virtual CPU's coroutine to be gone afterwards: the
// parked and queued ones unwound by shutdown, the finished ones exited. On
// the panic path the workload's panic value must still reach Run's caller.
func TestShutdownReleasesCoroutines(t *testing.T) {
	const n = 8
	tkt, mcs := locks.MustType("tkt").New(), locks.MustType("mcs").New()
	var shared, flag lockapi.Cell
	// lockLoop is a contended lock loop: at any stop point some threads
	// are parked on the lock and some are queued.
	lockLoop := func(l lockapi.Lock) func(int, *Proc) {
		return func(_ int, p *Proc) {
			ctx := l.NewCtx()
			for !p.Expired() {
				l.Acquire(p, ctx)
				p.Add(&shared, 1, lockapi.Relaxed)
				p.Work(50)
				l.Release(p, ctx)
				p.Work(200)
			}
		}
	}
	for _, tc := range []struct {
		name     string
		horizon  int64
		thread   func(i int, p *Proc)
		deadlock bool
		panics   any
	}{
		{"horizon", 50_000, lockLoop(tkt), false, nil},
		{"drained", 0, func(i int, p *Proc) {
			for k := 0; k < 10*(i+1); k++ {
				p.Add(&shared, 1, lockapi.Relaxed)
				p.Work(100)
			}
		}, false, nil},
		{"deadlock", 0, func(_ int, p *Proc) {
			for p.Load(&flag, lockapi.Acquire) == 0 {
				p.Spin()
			}
		}, true, nil},
		{"panic", 100_000, func(i int, p *Proc) {
			if i == 5 {
				p.Work(20_000)
				panic("boom in thread 5")
			}
			lockLoop(mcs)(i, p)
		}, false, "boom in thread 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := New(Config{Machine: topo.X86Server()})
			for i := 0; i < n; i++ {
				m.Spawn(i*12, func(p *Proc) { tc.thread(i, p) })
			}
			res, recovered := func() (res Result, r any) {
				defer func() { r = recover() }()
				return m.Run(tc.horizon), nil
			}()
			if recovered != tc.panics {
				t.Fatalf("Run panicked with %v, want %v", recovered, tc.panics)
			}
			if res.Deadlock != tc.deadlock {
				t.Errorf("Deadlock = %v, want %v (%+v)", res.Deadlock, tc.deadlock, res)
			}
			if tc.deadlock && len(res.ParkedCPUs) != n {
				t.Errorf("ParkedCPUs = %v, want all %d threads", res.ParkedCPUs, n)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%d goroutines after Run, %d before New: virtual CPUs leaked", got, before)
			}
		})
	}
}

// TestShareLevelTable checks the precomputed cohort table against topo's
// division-based ShareLevel for every CPU pair of machines with and without
// SMT, up to four distinct levels.
func TestShareLevelTable(t *testing.T) {
	for _, mach := range []*topo.Machine{topo.X86Server(), topo.Armv8Server(), topo.BigLittleSoC(), topo.DeepServer256()} {
		m := New(Config{Machine: mach})
		for a := 0; a < mach.NumCPUs(); a++ {
			for b := 0; b < mach.NumCPUs(); b++ {
				if got, want := m.shareLevel(a, b), mach.ShareLevel(a, b); got != want {
					t.Fatalf("%s: shareLevel(%d, %d) = %v, want %v", mach.Name, a, b, got, want)
				}
			}
		}
	}
}
