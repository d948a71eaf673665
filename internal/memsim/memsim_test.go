package memsim

import (
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

func TestSingleThreadDeterministicCost(t *testing.T) {
	m := New(Config{Machine: topo.X86Server()})
	var cell lockapi.Cell
	var finalTime int64
	m.Spawn(0, func(p *Proc) {
		p.Store(&cell, 1, lockapi.Relaxed) // cold: MemBase
		p.Store(&cell, 2, lockapi.Relaxed) // owned: Hit
		if got := p.Load(&cell, lockapi.Relaxed); got != 2 {
			t.Errorf("Load = %d, want 2", got)
		}
		p.Work(100)
		finalTime = p.Time()
	})
	res := m.Run(0)
	lat := DefaultLatency(topo.X86)
	want := lat.MemBase + lat.Hit + lat.Hit + 100
	if finalTime != want {
		t.Errorf("final time = %d, want %d", finalTime, want)
	}
	if res.Deadlock {
		t.Error("unexpected deadlock")
	}
}

func TestTransferCostByLevel(t *testing.T) {
	// A remote read costs the transfer latency of the sharing level.
	mach := topo.Armv8Server()
	lat := DefaultLatency(topo.ArmV8)
	pairs := []struct {
		a, b int
		lvl  topo.Level
	}{
		{0, 1, topo.CacheGroup},
		{0, 4, topo.NUMA},
		{0, 32, topo.Package},
		{0, 64, topo.System},
	}
	for _, pair := range pairs {
		m := New(Config{Machine: mach})
		var cell lockapi.Cell
		var readCost int64
		m.Spawn(pair.a, func(p *Proc) {
			p.Store(&cell, 7, lockapi.Relaxed)
		})
		m.Spawn(pair.b, func(p *Proc) {
			p.Work(1000) // ensure the writer ran first in virtual time
			before := p.Time()
			if got := p.Load(&cell, lockapi.Relaxed); got != 7 {
				t.Errorf("Load = %d, want 7", got)
			}
			readCost = p.Time() - before
		})
		m.Run(0)
		if want := lat.Transfer[pair.lvl]; readCost != want {
			t.Errorf("read %d<-%d (level %v): cost %d, want %d", pair.b, pair.a, pair.lvl, readCost, want)
		}
	}
}

// pingPong measures the paper's §3.1 microbenchmark on two CPUs: threads
// alternate incrementing a shared counter for the given virtual duration.
func pingPong(t *testing.T, mach *topo.Machine, cpuA, cpuB int, dur int64) uint64 {
	t.Helper()
	m := New(Config{Machine: mach})
	var counter lockapi.Cell
	var incs uint64
	turn := func(p *Proc, parity uint64) {
		for !p.Expired() {
			for p.Load(&counter, lockapi.Acquire)%2 != parity {
				p.Spin()
				if p.Expired() {
					return
				}
			}
			p.Add(&counter, 1, lockapi.AcqRel)
			incs++
		}
	}
	m.Spawn(cpuA, func(p *Proc) { turn(p, 0) })
	m.Spawn(cpuB, func(p *Proc) { turn(p, 1) })
	m.Run(dur)
	return incs
}

func TestPingPongFasterWhenCloser(t *testing.T) {
	mach := topo.Armv8Server()
	const dur = 200_000 // 200µs
	group := pingPong(t, mach, 0, 1, dur)
	numa := pingPong(t, mach, 0, 4, dur)
	pkg := pingPong(t, mach, 0, 32, dur)
	sys := pingPong(t, mach, 0, 64, dur)
	if !(group > numa && numa > pkg && pkg > sys) {
		t.Errorf("throughput not monotone in distance: group=%d numa=%d pkg=%d sys=%d", group, numa, pkg, sys)
	}
	if sys == 0 {
		t.Fatal("no progress at system distance")
	}
}

// TestTable2Calibration checks the simulator reproduces the paper's Table 2
// speedups (throughput of a cohort relative to the system cohort) within
// 25% relative tolerance.
func TestTable2Calibration(t *testing.T) {
	const dur = 400_000
	check := func(name string, got, want float64) {
		t.Helper()
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("%s speedup = %.2f, want %.2f ±25%%", name, got, want)
		}
	}

	x := topo.X86Server()
	xsys := float64(pingPong(t, x, 0, 48, dur))
	check("x86 numa/package", float64(pingPong(t, x, 0, 24, dur))/xsys, 1.54)
	check("x86 cache-group", float64(pingPong(t, x, 0, 2, dur))/xsys, 9.07)
	check("x86 core", float64(pingPong(t, x, 0, 1, dur))/xsys, 12.18)

	a := topo.Armv8Server()
	asys := float64(pingPong(t, a, 0, 64, dur))
	check("armv8 package", float64(pingPong(t, a, 0, 32, dur))/asys, 1.76)
	check("armv8 numa", float64(pingPong(t, a, 0, 4, dur))/asys, 2.98)
	check("armv8 cache-group", float64(pingPong(t, a, 0, 1, dur))/asys, 7.04)
}

// runLock drives `n` simulated threads through a critical-section workload
// and returns total completed iterations.
func runLock(t *testing.T, mach *topo.Machine, mk func() lockapi.Lock, n int, dur int64) (uint64, int64) {
	t.Helper()
	m := New(Config{Machine: mach})
	l := mk()
	ctxs := make([]lockapi.Ctx, n)
	for i := range ctxs {
		ctxs[i] = l.NewCtx()
	}
	var shared lockapi.Cell
	counts := make([]uint64, n)
	var held int32
	step := mach.NumCPUs() / n
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i++ {
		i := i
		m.Spawn((i*step)%mach.NumCPUs(), func(p *Proc) {
			for !p.Expired() {
				l.Acquire(p, ctxs[i])
				if held != 0 {
					t.Error("mutual exclusion violated")
				}
				held = 1
				p.Add(&shared, 1, lockapi.Relaxed)
				p.Work(80)
				held = 0
				l.Release(p, ctxs[i])
				p.Work(120)
				counts[i]++
			}
		})
	}
	res := m.Run(dur)
	if res.Deadlock {
		t.Fatalf("deadlock: parked CPUs %v", res.ParkedCPUs)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total, res.Now
}

func TestAllLocksOnSimulator(t *testing.T) {
	for _, machine := range []*topo.Machine{topo.X86Server(), topo.Armv8Server()} {
		for _, name := range locks.Names() {
			if machine.Arch == topo.ArmV8 && name == "hem-ctr" {
				continue // intentionally pathological; covered below
			}
			typ := locks.MustType(name)
			t.Run(machine.Arch.String()+"/"+name, func(t *testing.T) {
				total, _ := runLock(t, machine, typ.New, 8, 300_000)
				if total == 0 {
					t.Error("no iterations completed")
				}
			})
		}
	}
}

// TestHemlockCTRAsymmetry reproduces the paper's Fig. 3 CTR observation:
// CTR must not hurt on x86 but must collapse throughput on Armv8.
func TestHemlockCTRAsymmetry(t *testing.T) {
	const n, dur = 4, 400_000
	x86ctr, _ := runLock(t, topo.X86Server(), locks.MustType("hem-ctr").New, n, dur)
	x86plain, _ := runLock(t, topo.X86Server(), locks.MustType("hem").New, n, dur)
	armctr, _ := runLock(t, topo.Armv8Server(), locks.MustType("hem-ctr").New, n, dur)
	armplain, _ := runLock(t, topo.Armv8Server(), locks.MustType("hem").New, n, dur)

	if float64(x86ctr) < 0.8*float64(x86plain) {
		t.Errorf("x86: CTR hurt throughput: ctr=%d plain=%d", x86ctr, x86plain)
	}
	if float64(armctr) > 0.4*float64(armplain) {
		t.Errorf("armv8: CTR did not collapse: ctr=%d plain=%d", armctr, armplain)
	}
}

// TestTicketGlobalSpinPenalty: with many waiters, local-spinning MCS must
// beat globally-spinning Ticket (the motivation for queue locks, §2.1).
func TestTicketGlobalSpinPenalty(t *testing.T) {
	mach := topo.Armv8Server()
	const n, dur = 32, 400_000
	tkt, _ := runLock(t, mach, locks.MustType("tkt").New, n, dur)
	mcs, _ := runLock(t, mach, locks.MustType("mcs").New, n, dur)
	if mcs <= tkt {
		t.Errorf("MCS (%d) not better than Ticket (%d) at %d threads", mcs, tkt, n)
	}
}

func TestSpinParkingBoundsEvents(t *testing.T) {
	// A thread spinning on a line that changes once must park rather than
	// burn events.
	m := New(Config{Machine: topo.X86Server()})
	var flag lockapi.Cell
	var spinner *Proc
	spinner = m.Spawn(0, func(p *Proc) {
		for p.Load(&flag, lockapi.Acquire) == 0 {
			p.Spin()
		}
	})
	m.Spawn(48, func(p *Proc) {
		p.Work(50_000)
		p.Store(&flag, 1, lockapi.Release)
	})
	res := m.Run(0)
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	if spinner.Parks == 0 {
		t.Error("spinner never parked")
	}
	if res.Events > 100 {
		t.Errorf("events = %d; spin fast-forward not effective", res.Events)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, int64) {
		return runLock(t, topo.Armv8Server(), locks.MustType("mcs").New, 8, 200_000)
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("two identical runs diverged: (%d,%d) vs (%d,%d)", c1, t1, c2, t2)
	}
}

func TestSeedChangesJitteredRun(t *testing.T) {
	final := func(seed uint64) int64 {
		m := New(Config{Machine: topo.X86Server(), Seed: seed, JitterNS: 5})
		var c lockapi.Cell
		var ft int64
		m.Spawn(0, func(p *Proc) {
			for i := 0; i < 200; i++ {
				p.Store(&c, uint64(i), lockapi.Relaxed)
			}
			ft = p.Time()
		})
		m.Run(0)
		return ft
	}
	a, b := final(1), final(2)
	if a == b {
		t.Errorf("jittered runs with different seeds identical (%d); jitter inert", a)
	}
	if a2 := final(1); a2 != a {
		t.Errorf("same seed diverged: %d vs %d", a, a2)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := New(Config{Machine: topo.X86Server()})
	var flag lockapi.Cell
	m.Spawn(0, func(p *Proc) {
		for p.Load(&flag, lockapi.Acquire) == 0 {
			p.Spin()
		}
	})
	res := m.Run(0)
	if !res.Deadlock {
		t.Error("deadlock not detected")
	}
	if len(res.ParkedCPUs) != 1 || res.ParkedCPUs[0] != 0 {
		t.Errorf("ParkedCPUs = %v, want [0]", res.ParkedCPUs)
	}
}

func TestWorkloadPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Errorf("unexpected panic value: %v", r)
		}
	}()
	m := New(Config{Machine: topo.X86Server()})
	m.Spawn(0, func(p *Proc) {
		p.Work(10)
		panic("boom")
	})
	m.Run(0)
}

func TestSpawnValidation(t *testing.T) {
	m := New(Config{Machine: topo.X86Server()})
	for _, cpu := range []int{-1, 96, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Spawn(%d) did not panic", cpu)
				}
			}()
			m.Spawn(cpu, func(*Proc) {})
		}()
	}
	m.Spawn(5, func(*Proc) {})
	defer func() {
		if recover() == nil {
			t.Error("a second Spawn on cpu 5 did not panic")
		}
	}()
	m.Spawn(5, func(*Proc) {})
}

func TestRunTwicePanics(t *testing.T) {
	m := New(Config{Machine: topo.X86Server()})
	m.Spawn(0, func(p *Proc) { p.Work(1) })
	m.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	m.Run(0)
}

func TestHorizonStopsRun(t *testing.T) {
	m := New(Config{Machine: topo.X86Server()})
	iters := 0
	m.Spawn(0, func(p *Proc) {
		for !p.Expired() {
			p.Work(100)
			iters++
		}
	})
	res := m.Run(10_000)
	if res.Deadlock {
		t.Error("horizon run reported deadlock")
	}
	if iters < 95 || iters > 105 {
		t.Errorf("iters = %d, want ~100", iters)
	}
}

func TestCPUSpeedScalesWork(t *testing.T) {
	mach := topo.BigLittleSoC()
	speeds := topo.BigLittleSpeeds(mach, 3.0)
	m := New(Config{Machine: mach, CPUSpeed: speeds})
	var tBig, tLittle int64
	m.Spawn(0, func(p *Proc) { p.Work(100); tBig = p.Time() })
	m.Spawn(4, func(p *Proc) { p.Work(100); tLittle = p.Time() })
	m.Run(0)
	if tBig != 100 || tLittle != 300 {
		t.Errorf("work times big=%d little=%d, want 100/300", tBig, tLittle)
	}
}

func TestCPUSpeedValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched CPUSpeed length accepted")
		}
	}()
	New(Config{Machine: topo.BigLittleSoC(), CPUSpeed: []float64{1, 2}})
}

func TestTraceHook(t *testing.T) {
	var events []TraceEvent
	m := New(Config{Machine: topo.X86Server(), Trace: func(ev TraceEvent) {
		events = append(events, ev)
	}})
	var c lockapi.Cell
	m.Spawn(0, func(p *Proc) {
		p.Store(&c, 5, lockapi.Relaxed)
		if p.Load(&c, lockapi.Acquire) != 5 {
			t.Error("bad load")
		}
		p.CAS(&c, 5, 6, lockapi.AcqRel)
		p.CAS(&c, 5, 7, lockapi.AcqRel) // fails
		p.Add(&c, 1, lockapi.AcqRel)
		p.Swap(&c, 9, lockapi.AcqRel)
	})
	m.Run(0)
	want := []string{"store", "load", "cas", "cas!", "add", "swap"}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, ev := range events {
		if ev.Op != want[i] {
			t.Errorf("event %d op = %s, want %s", i, ev.Op, want[i])
		}
		if ev.Cell != &c || ev.CPU != 0 {
			t.Errorf("event %d misattributed: %+v", i, ev)
		}
	}
	// Values: store 5, load 5, cas new=6, cas! expected=5, add ->7, swap put 9.
	wantVals := []uint64{5, 5, 6, 5, 7, 9}
	for i, ev := range events {
		if ev.Value != wantVals[i] {
			t.Errorf("event %d value = %d, want %d", i, ev.Value, wantVals[i])
		}
	}
}

// TestCurrentCopyWithoutSharer pins the two ways a CPU's copy of a line is
// current although the CPU is not a sharer: the copy still reloads as a hit,
// and the next store pays no invalidation for it.
//   - A's fetch_add(0) resets the sharers but changes no value, so B's
//     earlier copy stays current.
//   - B's failed CAS fetches the line without joining the sharers.
//
// Armv8 is used because on x86 an owner's fetch_add(0) is the CTR spin-read,
// which leaves the sharers in place.
func TestCurrentCopyWithoutSharer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bCopy  func(t *testing.T, p *Proc, c *lockapi.Cell) // B fetches a current copy
		aTouch func(p *Proc, c *lockapi.Cell)               // A's access after B's fetch
	}{
		{"fetch_add(0)",
			func(_ *testing.T, p *Proc, c *lockapi.Cell) { p.Load(c, lockapi.Relaxed) },
			func(p *Proc, c *lockapi.Cell) { p.Add(c, 0, lockapi.Relaxed) }},
		{"failed CAS",
			func(t *testing.T, p *Proc, c *lockapi.Cell) {
				if p.CAS(c, 0, 5, lockapi.Relaxed) {
					t.Error("CAS expecting 0 succeeded on 1")
				}
			},
			func(*Proc, *lockapi.Cell) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mach := topo.Armv8Server()
			lat := DefaultLatency(mach.Arch)
			m := New(Config{Machine: mach})
			var cell lockapi.Cell
			var loadCost, storeCost int64
			until := func(p *Proc, at int64) { p.Work(at - p.Time()) }
			m.Spawn(0, func(p *Proc) { // A
				p.Store(&cell, 1, lockapi.Relaxed)
				until(p, 2000)
				tc.aTouch(p, &cell)
				until(p, 4000)
				t0 := p.Time()
				p.Store(&cell, 2, lockapi.Relaxed)
				storeCost = p.Time() - t0
			})
			m.Spawn(64, func(p *Proc) { // B
				until(p, 1000)
				tc.bCopy(t, p, &cell)
				until(p, 3000)
				t0 := p.Time()
				p.Load(&cell, lockapi.Relaxed)
				loadCost = p.Time() - t0
			})
			if res := m.Run(0); res.Deadlock {
				t.Fatalf("unexpected deadlock: %+v", res)
			}
			if loadCost != lat.Hit {
				t.Errorf("B's reload cost %d, want a hit (%d)", loadCost, lat.Hit)
			}
			if storeCost != lat.Hit {
				t.Errorf("A's store cost %d, want %d: no sharer to invalidate", storeCost, lat.Hit)
			}
		})
	}
}
