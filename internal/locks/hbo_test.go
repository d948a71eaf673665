package locks

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// spinMeter wraps a Proc and records Spin() bursts: a burst is a maximal run
// of consecutive Spin calls with no memory operation in between, which is
// exactly one ExpBackoff.Pause in HBO's acquire loop. onSpin, if set, is
// called with the running total — tests use it to release the lock after a
// chosen amount of backoff.
type spinMeter struct {
	inner  lockapi.Proc
	burst  int
	bursts []int
	total  int
	onSpin func(total int)
}

func (p *spinMeter) endBurst() {
	if p.burst > 0 {
		p.bursts = append(p.bursts, p.burst)
		p.burst = 0
	}
}

func (p *spinMeter) Load(c *lockapi.Cell, o lockapi.Order) uint64 {
	p.endBurst()
	return p.inner.Load(c, o)
}

func (p *spinMeter) Store(c *lockapi.Cell, v uint64, o lockapi.Order) {
	p.endBurst()
	p.inner.Store(c, v, o)
}

func (p *spinMeter) CAS(c *lockapi.Cell, old, new uint64, o lockapi.Order) bool {
	p.endBurst()
	return p.inner.CAS(c, old, new, o)
}

func (p *spinMeter) Add(c *lockapi.Cell, delta uint64, o lockapi.Order) uint64 {
	p.endBurst()
	return p.inner.Add(c, delta, o)
}

func (p *spinMeter) Swap(c *lockapi.Cell, v uint64, o lockapi.Order) uint64 {
	p.endBurst()
	return p.inner.Swap(c, v, o)
}

func (p *spinMeter) Fence(o lockapi.Order) { p.endBurst(); p.inner.Fence(o) }

func (p *spinMeter) Spin() {
	p.burst++
	p.total++
	if p.onSpin != nil {
		p.onSpin(p.total)
	}
}

func (p *spinMeter) ID() int { return p.inner.ID() }

var _ lockapi.Proc = (*spinMeter)(nil)

// TestExpBackoffNeverExceedsCap: every Pause spins at most Cap times (at
// most DefaultBackoffCap when Cap is 0), for caps above, below, and equal to
// the base, and the pre-cap pauses double.
func TestExpBackoffNeverExceedsCap(t *testing.T) {
	cases := []struct{ base, cap int }{
		{0, 0}, {1, 64}, {3, 100}, {16, 1024}, {10, 4}, {64, 64},
	}
	for _, tc := range cases {
		bo := lockapi.ExpBackoff{Base: tc.base, Cap: tc.cap}
		lim := tc.cap
		if lim <= 0 {
			lim = lockapi.DefaultBackoffCap
		}
		p := &spinMeter{inner: lockapi.NewNativeProc(0)}
		prev := 0
		for i := 0; i < 20; i++ {
			n := bo.Pause(p)
			if n > lim {
				t.Fatalf("Base=%d Cap=%d: pause %d spun %d > cap %d", tc.base, tc.cap, i, n, lim)
			}
			if n < prev {
				t.Fatalf("Base=%d Cap=%d: pause shrank %d -> %d", tc.base, tc.cap, prev, n)
			}
			if prev > 0 && prev < lim && n != prev*2 && n != lim {
				t.Fatalf("Base=%d Cap=%d: pause %d is %d, want double %d or cap %d", tc.base, tc.cap, i, n, prev*2, lim)
			}
			prev = n
		}
		if prev != lim {
			t.Errorf("Base=%d Cap=%d: sequence never reached the cap (last %d)", tc.base, tc.cap, prev)
		}
	}
}

// measureHBOBursts acquires l on CPU 0 while the word is preset to `owner`,
// releasing the lock once `releaseAfter` total spins have elapsed, and
// returns the recorded pause lengths.
func measureHBOBursts(t *testing.T, l *HBO, owner uint64, releaseAfter int) []int {
	t.Helper()
	native := lockapi.NewNativeProc(0)
	native.Store(&l.word, owner, lockapi.Relaxed)
	p := &spinMeter{inner: native}
	p.onSpin = func(total int) {
		if total == releaseAfter {
			native.Store(&l.word, 0, lockapi.Release)
		}
	}
	l.Acquire(p, nil)
	l.Release(native, nil)
	p.endBurst()
	if len(p.bursts) == 0 {
		t.Fatal("lock acquired without any backoff pause")
	}
	return p.bursts
}

// TestHBOBackoffBounded: under a held lock, no single HBO pause ever exceeds
// 64*base for the owner-distance base in effect, the pauses double up to that
// cap, and the cap is actually reached — for both the remote-owner and
// local-owner distances.
func TestHBOBackoffBounded(t *testing.T) {
	m := topo.X86Server()
	myNuma := uint64(m.CohortOf(0, topo.NUMA))
	remoteNuma := uint64(0)
	if remoteNuma == myNuma {
		remoteNuma = 1
	}

	check := func(t *testing.T, bursts []int, bound int) {
		t.Helper()
		reached := false
		for i, b := range bursts {
			if b > bound {
				t.Fatalf("pause %d spun %d > cap %d (bursts %v)", i, b, bound, bursts)
			}
			if b == bound {
				reached = true
			}
			if i > 0 && b < bursts[i-1] && b != bursts[len(bursts)-1] {
				t.Fatalf("pause shrank before release: %v", bursts)
			}
		}
		if !reached {
			t.Fatalf("backoff never reached cap %d: %v", bound, bursts)
		}
	}

	t.Run("remote-owner-capped-by-max-delay", func(t *testing.T) {
		// 64*remote = 1024, the longest pause any HBO waiter takes.
		bursts := measureHBOBursts(t, NewHBO(m), 1+remoteNuma, 3000)
		check(t, bursts, 1024)
	})
	t.Run("local-owner-capped-by-64x-base", func(t *testing.T) {
		// 64*local = 128.
		bursts := measureHBOBursts(t, NewHBO(m), 1+myNuma, 2000)
		check(t, bursts, 128)
	})
}
