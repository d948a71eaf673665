package hmcs

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/locktest"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

func TestNativeMutualExclusionAllDepths(t *testing.T) {
	for name, h := range map[string]*topo.Hierarchy{
		"hmcs2-x86": topo.MustHierarchy(topo.X86Server(), topo.NUMA, topo.System),
		"hmcs3-x86": topo.X86Hierarchy3(),
		"hmcs4-x86": topo.X86Hierarchy4(),
		"hmcs4-arm": topo.ArmHierarchy4(),
	} {
		h := h
		t.Run(name, func(t *testing.T) {
			locktest.NativeStress(t, Must(h), h.Machine, 12, 2000)
		})
	}
}

func TestNativeSmallThreshold(t *testing.T) {
	h := topo.X86Hierarchy4()
	locktest.NativeStress(t, Must(h, WithThreshold(2)), h.Machine, 8, 2000)
}

func TestSimulatedProgress(t *testing.T) {
	h := topo.ArmHierarchy4()
	res := locktest.SimRun(t, func() lockapi.Lock { return Must(h) }, workload.Config{
		Machine: h.Machine, Threads: 32, Horizon: 300_000, CSWork: 80, NCSWork: 120,
	})
	if res.Total == 0 {
		t.Fatal("no progress")
	}
	if res.Jain() < 0.3 {
		t.Errorf("Jain index %.2f suspiciously unfair for threshold-bounded HMCS", res.Jain())
	}
}

// TestLocalityBeatsMCS: HMCS⟨4⟩ must keep most handovers below the NUMA
// level, unlike plain MCS whose FIFO order crosses the machine arbitrarily,
// and that must translate into higher throughput at high contention (the
// Fig. 2 effect).
func TestLocalityBeatsMCS(t *testing.T) {
	h := topo.X86Hierarchy4()
	cfg := workload.Config{
		Machine: h.Machine, Threads: 48, Horizon: 400_000, CSWork: 80, NCSWork: 120,
	}
	hm := locktest.SimRun(t, func() lockapi.Lock { return Must(h) }, cfg)
	mcs := locktest.SimRun(t, func() lockapi.Lock { return locks.NewMCS() }, cfg)

	frac := func(r workload.Result) float64 {
		var local, total uint64
		for lvl, c := range r.HandoverLevels {
			total += c
			if topo.Level(lvl) < topo.NUMA {
				local += c
			}
		}
		if total == 0 {
			return 0
		}
		return float64(local) / float64(total)
	}
	if f := frac(hm); f < 0.8 {
		t.Errorf("HMCS<4> sub-NUMA handover fraction = %.2f, want > 0.8", f)
	}
	if f := frac(mcs); f > 0.5 {
		t.Errorf("MCS sub-NUMA handover fraction = %.2f, expected < 0.5 under spread placement", f)
	}
	if hm.Total <= mcs.Total {
		t.Errorf("HMCS<4> (%d) did not outperform MCS (%d) at 48 threads", hm.Total, mcs.Total)
	}
}

// TestThresholdBoundsLocalPassing: a tiny threshold must force more global
// handovers than the default.
func TestThresholdBoundsLocalPassing(t *testing.T) {
	h := topo.ArmHierarchy3()
	cfg := workload.Config{
		Machine: h.Machine, Threads: 32, Horizon: 300_000, CSWork: 80, NCSWork: 120,
	}
	tight := locktest.SimRun(t, func() lockapi.Lock { return Must(h, WithThreshold(2)) }, cfg)
	loose := locktest.SimRun(t, func() lockapi.Lock { return Must(h, WithThreshold(128)) }, cfg)
	cross := func(r workload.Result) float64 {
		var far, total uint64
		for lvl, c := range r.HandoverLevels {
			total += c
			if topo.Level(lvl) >= topo.NUMA {
				far += c
			}
		}
		if total == 0 {
			return 0
		}
		return float64(far) / float64(total)
	}
	if cross(tight) <= cross(loose) {
		t.Errorf("threshold 2 cross-NUMA fraction %.3f not above threshold 128's %.3f",
			cross(tight), cross(loose))
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	h := topo.X86Hierarchy3()
	l := Must(h)
	c := l.NewCtx()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	l.Release(lockapi.NewNativeProc(0), c)
}

func TestNameAndLevels(t *testing.T) {
	l := Must(topo.X86Hierarchy4())
	if l.Name() != "hmcs<4>" || l.Levels() != 4 {
		t.Errorf("Name/Levels = %s/%d", l.Name(), l.Levels())
	}
}

func TestNewRejectsBadHierarchy(t *testing.T) {
	if _, err := New(&topo.Hierarchy{Machine: topo.X86Server(), Levels: []topo.Level{topo.NUMA}}); err == nil {
		t.Error("hierarchy not ending at System accepted")
	}
}
