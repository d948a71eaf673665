package clof_test

import (
	"reflect"
	"sync"
	"testing"

	clof "github.com/clof-go/clof"
	"github.com/clof-go/clof/internal/locktest"
	"github.com/clof-go/clof/internal/workload"
)

// TestPublicAPIQuickstart exercises the facade end to end the way the
// README's quickstart does: build a lock from paper notation and use it
// from goroutines.
func TestPublicAPIQuickstart(t *testing.T) {
	h := clof.ArmHierarchy4()
	lock := clof.MustNewLock(h, "tkt-clh-tkt-tkt")
	if lock.Name() != "tkt-clh-tkt-tkt" {
		t.Fatalf("Name = %q", lock.Name())
	}

	const workers, iters = 8, 1000
	cpus, err := clof.Placement(h.Machine, workers)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]clof.Ctx, workers)
	for i := range ctxs {
		ctxs[i] = lock.NewCtx()
	}
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := clof.NewNativeProc(cpus[id])
			for i := 0; i < iters; i++ {
				lock.Acquire(p, ctxs[id])
				counter++
				lock.Release(p, ctxs[id])
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
}

func TestPublicAPIDiscoveryAndSelection(t *testing.T) {
	m := clof.Armv8Server()
	h, err := clof.DetectHierarchy(m, 30_000, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 4 {
		t.Fatalf("detected depth %d, want 4", h.Depth())
	}
	comps := clof.Generate(clof.BasicLocks(clof.ArmV8), 2)
	if len(comps) != 16 {
		t.Fatalf("Generate(4 basics, 2 levels) = %d", len(comps))
	}
	sp := clof.Speedups(m, 30_000)
	if sp[clof.CacheGroup] <= sp[clof.NUMA] {
		t.Error("cache-group speedup not above numa speedup")
	}

	// The scripted benchmark (§4.3) over every 3-level composition.
	h3 := clof.ArmHierarchy3()
	comps = clof.Generate(clof.BasicLocks(clof.ArmV8), h3.Depth())
	sel, err := clof.ScriptedBenchmark(h3, comps, []int{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.All) != 64 {
		t.Fatalf("selection ranks %d compositions, want 64", len(sel.All))
	}
	if !reflect.DeepEqual(sel.HCBest, sel.All[0]) {
		t.Errorf("HC-best %s is not the head of the HC ranking (%s)", sel.HCBest.Comp, sel.All[0].Comp)
	}
	again, err := clof.ScriptedBenchmark(h3, comps, []int{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel, again) {
		t.Errorf("two scripted benchmarks disagree: HC-best %s vs %s", sel.HCBest.Comp, again.HCBest.Comp)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	m := clof.X86Server()
	h := clof.X86Hierarchy4()
	hm, err := clof.NewHMCS(h)
	if err != nil {
		t.Fatal(err)
	}
	tkt, _ := clof.LockTypeByName("tkt")
	mcs, _ := clof.LockTypeByName("mcs")
	co, err := clof.NewCohortLock(m, clof.NUMA, tkt, mcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []clof.Lock{hm, clof.NewCNA(m), clof.NewShflLock(m), co} {
		ctx := l.NewCtx()
		p := clof.NewNativeProc(0)
		l.Acquire(p, ctx)
		l.Release(p, ctx)
	}
}

func TestPublicAPISimulation(t *testing.T) {
	m := clof.Armv8Server()
	res, err := clof.RunWorkload(
		func() clof.Lock { return clof.MustNewLock(clof.ArmHierarchy3(), "tkt-clh-tkt") },
		clof.LevelDBWorkload(m, 16),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 || res.ExclusionViolations != 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestPublicAPIVerification(t *testing.T) {
	tkt, _ := clof.LockTypeByName("tkt")
	prog := clof.LockCheckProgram("tkt", 2, 1, tkt.New)
	res := clof.Check(prog, clof.CheckConfig{Mode: clof.ModelSC})
	if !res.OK {
		t.Fatalf("verification failed: %s", res.Violation)
	}
	if res.States == 0 {
		t.Error("no states explored")
	}
}

// mustLockType resolves a basic lock by name or fails the test.
func mustLockType(t *testing.T, name string) clof.LockType {
	t.Helper()
	lt, ok := clof.LockTypeByName(name)
	if !ok {
		t.Fatalf("basic lock %q missing", name)
	}
	return lt
}

// TestCohortLockNativeMutualExclusion stresses the classic cohort locks —
// C-BO-MCS, C-TKT-TKT and C-MCS-MCS, each a 2-level CLoF composition over
// NUMA cohorts — natively.
func TestCohortLockNativeMutualExclusion(t *testing.T) {
	m := clof.X86Server()
	for _, c := range []struct{ global, local string }{{"bo", "mcs"}, {"tkt", "tkt"}, {"mcs", "mcs"}} {
		t.Run("C-"+c.global+"-"+c.local, func(t *testing.T) {
			l, err := clof.NewCohortLock(m, clof.NUMA, mustLockType(t, c.global), mustLockType(t, c.local))
			if err != nil {
				t.Fatal(err)
			}
			locktest.NativeStress(t, l, m, 12, 2000)
		})
	}
}

// TestCohortLockNUMALocality: a cohort lock keeps handovers NUMA-local.
func TestCohortLockNUMALocality(t *testing.T) {
	m := clof.Armv8Server()
	mcs := mustLockType(t, "mcs")
	res := locktest.SimRun(t, func() clof.Lock {
		l, err := clof.NewCohortLock(m, clof.NUMA, mcs, mcs)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}, workload.Config{Machine: m, Threads: 64, Horizon: 300_000, CSWork: 80, NCSWork: 120})
	var local, total uint64
	for lvl, c := range res.HandoverLevels {
		total += c
		if clof.Level(lvl) <= clof.NUMA {
			local += c
		}
	}
	if total == 0 {
		t.Fatal("no handovers")
	}
	if f := float64(local) / float64(total); f < 0.8 {
		t.Errorf("cohort numa-local handover fraction %.2f, want > 0.8", f)
	}
}

// TestNewCohortLockRejectsBadLevel: System as the local level duplicates the
// global level and must be rejected — with a nil Lock, not a non-nil
// interface around a nil pointer.
func TestNewCohortLockRejectsBadLevel(t *testing.T) {
	tkt := mustLockType(t, "tkt")
	l, err := clof.NewCohortLock(clof.X86Server(), clof.System, tkt, tkt)
	if err == nil {
		t.Fatal("System as the local level must be rejected (duplicate levels)")
	}
	if l != nil {
		t.Errorf("NewCohortLock returned a non-nil Lock (%T) with error %v", l, err)
	}
}

// TestNewHMCSRejectsBadHierarchy: an invalid hierarchy fails with a nil Lock,
// not a non-nil interface around a nil pointer.
func TestNewHMCSRejectsBadHierarchy(t *testing.T) {
	l, err := clof.NewHMCS(&clof.Hierarchy{})
	if err == nil {
		t.Fatal("NewHMCS accepted an empty hierarchy")
	}
	if l != nil {
		t.Errorf("NewHMCS returned a non-nil Lock (%T) with error %v", l, err)
	}
}
