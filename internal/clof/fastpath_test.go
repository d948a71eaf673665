package clof

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locktest"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

func TestFastPathNativeMutualExclusion(t *testing.T) {
	h := tinyHierarchy()
	l := Must(h, mustComp(t, "tkt-mcs-tkt"), WithTASFastPath(), WithThreshold(8))
	locktest.NativeStress(t, l, h.Machine, 8, 3000)
}

func TestFastPathUncontendedSkipsHierarchy(t *testing.T) {
	h := tinyHierarchy()
	l := Must(h, mustComp(t, "mcs-mcs-mcs"), WithTASFastPath())
	p := lockapi.NewNativeProc(0)
	ctx := l.NewCtx()
	for i := 0; i < 100; i++ {
		l.Acquire(p, ctx)
		if !ctx.(*threadCtx).fastOnly {
			t.Fatal("uncontended acquire did not take the fast path")
		}
		l.Release(p, ctx)
	}
	// The hierarchy must be untouched: the leaf's pass flag never set and
	// the root MCS tail still empty.
	if got := l.leaves[0].highHeld.Raw().Load(); got != 0 {
		t.Errorf("hierarchy touched by fast path: highHeld = %d", got)
	}
}

// TestFastPathLowContentionGain: on the simulator, single-thread throughput
// with the fast path must beat the full 4-level climb, and high contention
// must not collapse (the slow path takes over).
func TestFastPathLowContentionGain(t *testing.T) {
	h := topo.ArmHierarchy4()
	run := func(fast bool, threads int) float64 {
		opts := []Option{}
		if fast {
			opts = append(opts, WithTASFastPath())
		}
		cfg := workload.LevelDB(h.Machine, threads)
		cfg.Horizon /= 2
		comp := mustComp(t, "tkt-clh-tkt-tkt")
		res, err := workload.Run(func() lockapi.Lock {
			return Must(h, comp, opts...)
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExclusionViolations > 0 {
			t.Fatalf("mutual exclusion violated with fast=%v", fast)
		}
		return res.ThroughputOpsPerUs()
	}
	if gain := run(true, 1) / run(false, 1); gain < 1.02 {
		t.Errorf("fast path single-thread gain %.3fx, want > 1.02x", gain)
	}
	if ratio := run(true, 127) / run(false, 127); ratio < 0.85 {
		t.Errorf("fast path high-contention ratio %.3f, want >= 0.85 (no collapse)", ratio)
	}
}
