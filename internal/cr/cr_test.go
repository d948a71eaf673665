package cr_test

import (
	"testing"

	"github.com/clof-go/clof/internal/cr"
	"github.com/clof-go/clof/internal/faultinject"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/locktest"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// noTry is a minimal Lock without TryAcquire, for capability-forwarding
// checks: the wrapper must decline trylock when the inner lock cannot.
type noTry struct{ inner lockapi.Lock }

func (l *noTry) NewCtx() lockapi.Ctx                   { return l.inner.NewCtx() }
func (l *noTry) Acquire(p lockapi.Proc, c lockapi.Ctx) { l.inner.Acquire(p, c) }
func (l *noTry) Release(p lockapi.Proc, c lockapi.Ctx) { l.inner.Release(p, c) }

func TestRestrictNativeStress(t *testing.T) {
	m := topo.X86Server()
	for _, target := range []int{1, 2, 4} {
		l := cr.Restrict(m, locks.NewTicket(), cr.Opts{Target: target, PassLimit: 2})
		locktest.NativeStress(t, l, m, 8, 2000)
	}
}

func TestRestrictSimRun(t *testing.T) {
	m := topo.OversubscribedServer()
	res := locktest.SimRun(t, func() lockapi.Lock {
		return cr.Restrict(m, locks.NewTicket(), cr.Opts{})
	}, workload.Config{
		Machine: m, Threads: 32, Horizon: 200_000,
		CSWork: 300, NCSWork: 2400, DataCells: 4, Seed: 1, JitterNS: 2,
	})
	if res.Total == 0 {
		t.Fatal("no acquisitions completed")
	}
	if starved := res.Starved(0.01); len(starved) > 0 {
		t.Errorf("threads %v starved below 1%% share", starved)
	}
}

func TestRestrictSimRunUnderPreemption(t *testing.T) {
	m := topo.OversubscribedServer()
	res := locktest.SimRun(t, func() lockapi.Lock {
		return cr.Restrict(m, locks.NewTicket(), cr.Opts{})
	}, workload.Config{
		Machine: m, Threads: 48, Horizon: 300_000,
		CSWork: 300, NCSWork: 2400, DataCells: 4, Seed: 7, JitterNS: 2,
		Faults: faultinject.MustByName("oversubscribed"),
	})
	if res.Total == 0 {
		t.Fatal("no acquisitions completed under preemption")
	}
	if starved := res.Starved(0.005); len(starved) > 0 {
		t.Errorf("threads %v starved below 0.5%% share (passive set must recirculate)", starved)
	}
}

func TestRestrictTryAcquire(t *testing.T) {
	m := topo.X86Server()
	l := cr.Restrict(m, locks.NewTicket(), cr.Opts{Target: 2})
	if !lockapi.SupportsTry(l) {
		t.Fatal("restricted ticket lock must support trylock")
	}
	p0 := lockapi.NewNativeProc(0)
	c0, c1 := l.NewCtx(), l.NewCtx()
	if !l.TryAcquire(p0, c0) {
		t.Fatal("uncontended TryAcquire failed")
	}
	p1 := lockapi.NewNativeProc(48)
	if l.TryAcquire(p1, c1) {
		t.Fatal("TryAcquire succeeded while inner lock held")
	}
	l.Release(p0, c0)
	if !l.TryAcquire(p1, c1) {
		t.Fatal("TryAcquire failed on a free lock with a reused ctx")
	}
	l.Release(p1, c1)
}

func TestRestrictDeclinesTryWhenInnerCannot(t *testing.T) {
	m := topo.X86Server()
	l := cr.Restrict(m, &noTry{inner: locks.NewTicket()}, cr.Opts{})
	if lockapi.SupportsTry(l) {
		t.Fatal("wrapper must decline trylock when the inner lock lacks it")
	}
	if l.TryAcquire(lockapi.NewNativeProc(0), l.NewCtx()) {
		t.Fatal("TryAcquire must fail when unsupported")
	}
}
