package shfllock

import (
	"testing"

	"github.com/clof-go/clof/internal/cna"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/locktest"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

func TestNativeMutualExclusion(t *testing.T) {
	for _, m := range []*topo.Machine{topo.X86Server(), topo.Armv8Server()} {
		t.Run(m.Arch.String(), func(t *testing.T) {
			locktest.NativeStress(t, New(m), m, 12, 3000)
		})
	}
}

func TestUncontendedFastPath(t *testing.T) {
	m := topo.X86Server()
	l := New(m)
	c := l.NewCtx()
	p := lockapi.NewNativeProc(0)
	for i := 0; i < 100; i++ {
		l.Acquire(p, c)
		l.Release(p, c)
	}
}

func TestSimulatedProgressNoStarvation(t *testing.T) {
	m := topo.Armv8Server()
	res := locktest.SimRun(t, func() lockapi.Lock { return New(m) }, workload.Config{
		Machine: m, Threads: 64, Horizon: 1_000_000, CSWork: 80, NCSWork: 120,
	})
	if res.Total == 0 {
		t.Fatal("no progress")
	}
	for i, c := range res.PerThread {
		if c == 0 {
			t.Errorf("thread %d starved", i)
		}
	}
}

// TestShufflingLocality: like CNA, ShflLock groups NUMA-local waiters.
func TestShufflingLocality(t *testing.T) {
	// Both packages in play (cf. the CNA test): shuffling pays off once
	// FIFO order would cross the socket link half the time.
	m := topo.Armv8Server()
	cfg := workload.Config{
		Machine: m, Threads: 128, Horizon: 400_000, CSWork: 80, NCSWork: 120,
	}
	shfl := locktest.SimRun(t, func() lockapi.Lock { return New(m) }, cfg)
	mcs := locktest.SimRun(t, func() lockapi.Lock { return locks.NewMCS() }, cfg)
	numaLocal := func(r workload.Result) float64 {
		var local, total uint64
		for lvl, c := range r.HandoverLevels {
			total += c
			if topo.Level(lvl) <= topo.NUMA {
				local += c
			}
		}
		if total == 0 {
			return 0
		}
		return float64(local) / float64(total)
	}
	if numaLocal(shfl) < 0.7 {
		t.Errorf("ShflLock numa-local fraction %.2f, want > 0.7", numaLocal(shfl))
	}
	if shfl.Total <= mcs.Total {
		t.Errorf("ShflLock (%d) did not beat MCS (%d) at 128 threads", shfl.Total, mcs.Total)
	}
}

// TestComparableToCNA reproduces the paper's observation that ShflLock
// performs comparably to CNA (§5.3.2): within 2x either way.
func TestComparableToCNA(t *testing.T) {
	m := topo.Armv8Server()
	cfg := workload.Config{
		Machine: m, Threads: 96, Horizon: 400_000, CSWork: 80, NCSWork: 120,
	}
	shfl := locktest.SimRun(t, func() lockapi.Lock { return New(m) }, cfg)
	cnaPkg := locktest.SimRun(t, func() lockapi.Lock { return cna.New(m) }, cfg)
	lo, hi := float64(cnaPkg.Total)*0.5, float64(cnaPkg.Total)*2
	if f := float64(shfl.Total); f < lo || f > hi {
		t.Errorf("ShflLock (%d) not comparable to CNA (%d)", shfl.Total, cnaPkg.Total)
	}
}
