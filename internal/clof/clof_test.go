package clof

import (
	"sync"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/topo"
)

// tinyMachine is an 8-CPU two-package machine small enough for native
// goroutine stress tests: 2 packages × 1 NUMA × 2 cache groups × 2 cores.
func tinyMachine() *topo.Machine {
	return &topo.Machine{
		Name:           "tiny8",
		Arch:           topo.X86,
		Packages:       2,
		NUMAPerPackage: 1,
		GroupsPerNUMA:  2,
		CoresPerGroup:  2,
		ThreadsPerCore: 1,
	}
}

func tinyHierarchy() *topo.Hierarchy {
	return topo.MustHierarchy(tinyMachine(), topo.CacheGroup, topo.NUMA, topo.System)
}

func mustComp(t *testing.T, s string) Composition {
	t.Helper()
	c, err := ParseComposition(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseCompositionRoundTrip(t *testing.T) {
	for _, s := range []string{"tkt", "tkt-mcs", "hem-hem-mcs-clh", "tkt-clh-tkt-tkt", "hem-ctr-mcs", "mcs-hem-ctr"} {
		c, err := ParseComposition(s)
		if err != nil {
			t.Fatalf("ParseComposition(%q): %v", s, err)
		}
		if c.String() != s {
			t.Errorf("round trip %q -> %q", s, c.String())
		}
	}
	if _, err := ParseComposition("tkt-foo"); err == nil {
		t.Error("unknown lock accepted")
	}
}

func TestCompositionFair(t *testing.T) {
	if !mustComp(t, "tkt-mcs-clh").Fair() {
		t.Error("all-fair composition reported unfair")
	}
	if mustComp(t, "tkt-ttas-clh").Fair() {
		t.Error("composition with TTAS reported fair")
	}
}

func TestNewValidation(t *testing.T) {
	h := tinyHierarchy()
	if _, err := New(h, mustComp(t, "tkt-mcs")); err == nil {
		t.Error("composition/levels length mismatch accepted")
	}
	if _, err := New(h, mustComp(t, "tkt-mcs-clh")); err != nil {
		t.Errorf("valid construction rejected: %v", err)
	}
}

func TestTreeShape(t *testing.T) {
	h := topo.X86Hierarchy4() // core, cache-group, numa, system on 96 CPUs
	l := Must(h, mustComp(t, "tkt-mcs-clh-hem"))
	if got := len(l.leaves); got != 48 {
		t.Fatalf("leaf count = %d, want 48 (cores)", got)
	}
	// All leaves of one NUMA node must reach the same system root.
	root := func(n *levelLock) *levelLock {
		for n.parent != nil {
			n = n.parent
		}
		return n
	}
	r0 := root(l.leaves[0])
	for i, leaf := range l.leaves {
		if root(leaf) != r0 {
			t.Fatalf("leaf %d reaches a different root", i)
		}
		// Depth must equal the number of levels.
		depth := 1
		for n := leaf; n.parent != nil; n = n.parent {
			depth++
		}
		if depth != 4 {
			t.Fatalf("leaf %d depth = %d, want 4", i, depth)
		}
	}
	// Distinct leaves of distinct cache groups must share the numa-level
	// parent iff they are in the same NUMA node.
	if l.leaves[0].parent != l.leaves[1].parent {
		t.Error("cores 0,1 (same cache group) must share the cache-group lock")
	}
	if l.leaves[0].parent.parent != l.leaves[23].parent.parent {
		t.Error("cores 0 and 23 are in the same NUMA node; must share numa lock")
	}
	if l.leaves[0].parent.parent == l.leaves[24].parent.parent {
		// core 24 is the first core of package 2.
		t.Error("cores 0 and 24 are in different NUMA nodes; must not share numa lock")
	}
}

func TestNativeMutualExclusion(t *testing.T) {
	h := tinyHierarchy()
	for _, comp := range []string{"tkt-tkt-tkt", "mcs-mcs-mcs", "tkt-clh-mcs", "hem-mcs-tkt", "clh-clh-clh"} {
		comp := comp
		t.Run(comp, func(t *testing.T) {
			l := Must(h, mustComp(t, comp), WithThreshold(8))
			n := h.Machine.NumCPUs()
			ctxs := make([]lockapi.Ctx, n)
			for i := range ctxs {
				ctxs[i] = l.NewCtx()
			}
			var counter int
			var wg sync.WaitGroup
			const iters = 1500
			for w := 0; w < n; w++ {
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
			if counter != n*iters {
				t.Errorf("counter = %d, want %d", counter, n*iters)
			}
		})
	}
}

func TestSimulatedMutualExclusionAndProgress(t *testing.T) {
	mach := topo.Armv8Server()
	h := topo.ArmHierarchy4()
	l := Must(h, mustComp(t, "tkt-clh-tkt-tkt"))
	m := memsim.New(memsim.Config{Machine: mach})
	const n = 16
	ctxs := make([]lockapi.Ctx, n)
	for i := range ctxs {
		ctxs[i] = l.NewCtx()
	}
	var held int
	var total uint64
	for i := 0; i < n; i++ {
		i := i
		m.Spawn(i*8, func(p *memsim.Proc) {
			for !p.Expired() {
				l.Acquire(p, ctxs[i])
				if held != 0 {
					t.Error("mutual exclusion violated")
				}
				held = 1
				p.Work(80)
				held = 0
				l.Release(p, ctxs[i])
				p.Work(120)
				total++
			}
		})
	}
	res := m.Run(400_000)
	if res.Deadlock {
		t.Fatalf("deadlock, parked: %v", res.ParkedCPUs)
	}
	if total == 0 {
		t.Fatal("no progress")
	}
}

// TestLockPassingWhitebox drives the pass_high_lock protocol directly: with
// a waiter present and keep_local true, release must set the highHeld flag
// and keep the parent lock held; without waiters it must clear the flag and
// release the parent.
func TestLockPassingWhitebox(t *testing.T) {
	h := tinyHierarchy()
	// Disable custom detectors so the inc_waiters/dec_waiters counter
	// drives has_waiters and the test can fake a waiter by bumping it.
	l := Must(h, mustComp(t, "mcs-clh-tkt"), WithThreshold(100), WithoutCustomHasWaiters())
	p := lockapi.NewNativeProc(0)
	ctx := l.NewCtx()

	l.Acquire(p, ctx)
	leaf := l.leaves[0]
	root := leaf.parent.parent
	rootTkt := root.lock.(*locks.Ticket)
	if rootTkt.HasWaiters(p, nil) {
		t.Fatal("sanity: root should have no waiters")
	}

	// Simulate a waiter in our leaf cohort at the numa level.
	numa := leaf.parent
	p.Add(&numa.waiters, 1, lockapi.Relaxed)
	l.releaseNode(p, numa, leaf.highCtx, 1) // release from the numa level down
	if got := p.Load(&numa.highHeld, lockapi.Relaxed); got == 0 {
		t.Error("release with waiters did not pass the high lock")
	}
	// The system lock must still be held (ticket not granted).
	if rootTkt.TryObserveUnlocked(p) {
		t.Error("system lock was released despite lock passing")
	}

	// Next acquire in the same cohort must skip the system lock.
	l.acquireNode(p, numa, leaf.highCtx)
	// Remove the fake waiter and release for real: flag must clear and the
	// system lock must become free.
	p.Add(&numa.waiters, ^uint64(0), lockapi.Relaxed)
	l.releaseNode(p, numa, leaf.highCtx, 1)
	if got := p.Load(&numa.highHeld, lockapi.Relaxed); got != 0 {
		t.Error("release without waiters left the pass flag set")
	}
	if !rootTkt.TryObserveUnlocked(p) {
		t.Error("system lock still held after give-away release")
	}
	l.releaseNode(p, leaf, ctx.(*threadCtx).leafCtxs[0], 1)
}

// TestKeepLocalThreshold: with a perpetual waiter, keep_local must force a
// global release every H handovers (the pass flag carries the count).
func TestKeepLocalThreshold(t *testing.T) {
	h := tinyHierarchy()
	const H = 4
	l := Must(h, mustComp(t, "tkt-tkt-tkt"), WithThreshold(H), WithoutCustomHasWaiters())
	p := lockapi.NewNativeProc(0)
	ctx := l.NewCtx().(*threadCtx)
	l.Acquire(p, ctx)
	leaf := l.leaves[0]
	// Fake a perpetual waiter in the leaf cohort.
	p.Add(&leaf.waiters, 1, lockapi.Relaxed)
	giveaways := 0
	const cycles = 3 * H
	for i := 0; i < cycles; i++ {
		l.releaseNode(p, leaf, ctx.leafCtxs[0], 1)
		if p.Load(&leaf.highHeld, lockapi.Relaxed) == 0 {
			giveaways++
		}
		l.acquireNode(p, leaf, ctx.leafCtxs[0])
	}
	// Pass counts run 1..H-1, then the H-th handover gives away: one
	// giveaway per H cycles.
	if giveaways != cycles/H {
		t.Errorf("giveaways = %d over %d cycles with H=%d, want %d", giveaways, cycles, H, cycles/H)
	}
	p.Add(&leaf.waiters, ^uint64(0), lockapi.Relaxed)
	l.releaseNode(p, leaf, ctx.leafCtxs[0], 1)
}

// TestKeepLocalTenureBound: keep_local bounds one tenure, not each level's
// passes. With perpetual waiters at the leaf and NUMA levels, a leaf tenure
// ends after H acquisitions and charges all H to the NUMA level, so the root
// must be given away at least once every 2H-1 acquisitions. Counting one
// NUMA pass per leaf tenure instead would keep the root for H*H.
func TestKeepLocalTenureBound(t *testing.T) {
	h := tinyHierarchy()
	const H = 4
	l := Must(h, mustComp(t, "tkt-tkt-tkt"), WithThreshold(H), WithoutCustomHasWaiters())
	p := lockapi.NewNativeProc(0)
	ctx := l.NewCtx().(*threadCtx)
	l.Acquire(p, ctx)
	leaf := l.leaves[0]
	numa := leaf.parent
	root := numa.parent.lock.(*locks.Ticket)
	p.Add(&leaf.waiters, 1, lockapi.Relaxed)
	p.Add(&numa.waiters, 1, lockapi.Relaxed)
	// run counts the acquisitions of the current root tenure.
	run, longest := 1, 0
	for i := 0; i < 8*H; i++ {
		l.releaseNode(p, leaf, ctx.leafCtxs[0], 1)
		if root.TryObserveUnlocked(p) {
			longest = max(longest, run)
			run = 0
		}
		l.acquireNode(p, leaf, ctx.leafCtxs[0])
		run++
	}
	if longest == 0 || longest > 2*H-1 {
		t.Errorf("longest root tenure = %d acquisitions with H=%d, want 1..%d", longest, H, 2*H-1)
	}
	p.Add(&leaf.waiters, ^uint64(0), lockapi.Relaxed)
	p.Add(&numa.waiters, ^uint64(0), lockapi.Relaxed)
	l.releaseNode(p, leaf, ctx.leafCtxs[0], 1)
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	l := Must(tinyHierarchy(), mustComp(t, "tkt-tkt-tkt"))
	p := lockapi.NewNativeProc(0)
	ctx := l.NewCtx()
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	l.Release(p, ctx)
}

func TestGenerate(t *testing.T) {
	basics := locks.BasicLocks(topo.X86)
	for levels, want := range map[int]int{1: 4, 2: 16, 3: 64, 4: 256} {
		comps := Generate(basics, levels)
		if len(comps) != want {
			t.Fatalf("Generate(%d levels) = %d comps, want %d", levels, len(comps), want)
		}
		seen := map[string]bool{}
		for _, c := range comps {
			if len(c) != levels {
				t.Fatalf("composition %q has %d levels, want %d", c, len(c), levels)
			}
			if seen[c.String()] {
				t.Fatalf("duplicate composition %q", c)
			}
			seen[c.String()] = true
		}
	}
	if Generate(basics, 0) != nil || Generate(nil, 3) != nil {
		t.Error("degenerate Generate inputs must return nil")
	}
}

func TestSelectionPolicies(t *testing.T) {
	mk := func(name string, tputs ...float64) Measurement {
		comp := mustComp(t, name)
		m := Measurement{Comp: comp}
		threads := []int{1, 8, 64}
		for i, tp := range tputs {
			m.Points = append(m.Points, Point{Threads: threads[i], Throughput: tp})
		}
		return m
	}
	// lowLock is great at 1 thread, poor at 64; highLock the reverse.
	lowLock := mk("tkt", 10, 5, 1)
	highLock := mk("mcs", 2, 5, 9)
	sel, err := Select([]Measurement{lowLock, highLock})
	if err != nil {
		t.Fatal(err)
	}
	if sel.HCBest.Comp.String() != "mcs" {
		t.Errorf("HC-best = %s, want mcs", sel.HCBest.Comp)
	}
	if sel.LCBest.Comp.String() != "tkt" {
		t.Errorf("LC-best = %s, want tkt", sel.LCBest.Comp)
	}
	if sel.Worst.Comp.String() != "tkt" {
		t.Errorf("worst (HC-ranked) = %s, want tkt", sel.Worst.Comp)
	}
	if _, err := Select(nil); err == nil {
		t.Error("Select(nil) must error")
	}
}

func TestFairnessDeclaration(t *testing.T) {
	h := tinyHierarchy()
	if !lockapi.Fair(Must(h, mustComp(t, "tkt-mcs-clh"))) {
		t.Error("fair composition must declare fairness")
	}
	if lockapi.Fair(Must(h, mustComp(t, "tkt-ttas-clh"))) {
		t.Error("composition with unfair component must not declare fairness")
	}
}

func TestGenerateFrom(t *testing.T) {
	tkt := locks.MustType("tkt")
	mcs := locks.MustType("mcs")
	clh := locks.MustType("clh")
	comps := GenerateFrom([][]locks.Type{{tkt, mcs}, {clh}, {tkt, mcs, clh}})
	if len(comps) != 2*1*3 {
		t.Fatalf("GenerateFrom = %d comps, want 6", len(comps))
	}
	for _, c := range comps {
		if c[1].Name != "clh" {
			t.Errorf("level 1 must be clh, got %s", c)
		}
	}
	if GenerateFrom(nil) != nil || GenerateFrom([][]locks.Type{{tkt}, {}}) != nil {
		t.Error("degenerate candidate sets must return nil")
	}
}

// TestPreselect: footnote 5's search-space reduction keeps the per-level
// winners and shrinks N^M to topK^M.
func TestPreselect(t *testing.T) {
	h := topo.ArmHierarchy3()
	basics := locks.BasicLocks(topo.ArmV8)
	// Synthetic scorer: clh best at every level, tkt second.
	score := func(typ locks.Type, lvl topo.Level) float64 {
		switch typ.Name {
		case "clh":
			return 3
		case "tkt":
			return 2
		case "mcs":
			return 1
		default:
			return 0
		}
	}
	comps := Preselect(basics, h, 2, score)
	if len(comps) != 8 { // 2^3
		t.Fatalf("Preselect(topK=2) = %d comps, want 8", len(comps))
	}
	for _, c := range comps {
		for _, typ := range c {
			if typ.Name != "clh" && typ.Name != "tkt" {
				t.Errorf("non-preselected lock %s in %s", typ.Name, c)
			}
		}
	}
	// topK >= N degenerates to the full sweep.
	if full := Preselect(basics, h, 99, score); len(full) != 64 {
		t.Errorf("Preselect(topK=99) = %d comps, want 64", len(full))
	}
}
