package memsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// dispatchDepth counts m's dispatch stack: the running thread and every
// thread suspended inside a nested Resume beneath it.
func dispatchDepth(m *Machine) int {
	n := 0
	for _, p := range m.threads {
		if p.onStack {
			n++
		}
	}
	return n
}

// TestShutdownReleasesCoroutines runs 8 threads to each way a run can end
// and requires every virtual CPU's coroutine to be gone afterwards: the
// parked and queued ones unwound by shutdown, the finished ones exited. On
// the panic paths the workload's panic value must still reach Run's caller,
// also from a thread that two or more other threads' nested Resumes sit
// beneath. No line state may outlive the run either: every line slot the
// run filled is empty again, so the next run on the same cells (the cells
// are shared by the cases) starts cold.
func TestShutdownReleasesCoroutines(t *testing.T) {
	const n = 8
	tkt, mcs, mcs2 := locks.MustType("tkt").New(), locks.MustType("mcs").New(), locks.MustType("mcs").New()
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
		{"nested-panic", 100_000, func(i int, p *Proc) {
			if i == 5 {
				for dispatchDepth(p.m) < 3 {
					p.Work(1000)
				}
				panic("boom in nested thread 5")
			}
			lockLoop(mcs2)(i, p)
		}, false, "boom in nested thread 5"},
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
			if len(m.lines) == 0 {
				t.Error("the run created no line")
			}
			for i, ln := range m.lines {
				if *ln.slot != nil {
					t.Errorf("line %d still hangs off its slot after Run", i)
				}
			}
			for _, c := range []*lockapi.Cell{&shared, &flag} {
				if *c.LineSlot() != nil {
					t.Error("a touched cell still carries line state after Run")
				}
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

// TestBodyReturnsWhileNested runs threads whose workloads return one after
// another, all but the first while nested inside other threads' Resumes:
// the run must go on from there to the same Result and per-thread counters
// the central-scheduler core produced.
func TestBodyReturnsWhileNested(t *testing.T) {
	m := New(Config{Machine: topo.X86Server(), Seed: 7, JitterNS: 3})
	l := locks.MustType("mcs").New()
	var shared lockapi.Cell
	procs := make([]*Proc, 8)
	nested := 0
	for i := range procs {
		i := i
		ctx := l.NewCtx()
		procs[i] = m.Spawn(i*12, func(p *Proc) {
			for k := 0; k < 4*(i+1); k++ {
				l.Acquire(p, ctx)
				p.Add(&shared, 1, lockapi.Relaxed)
				p.Work(50)
				l.Release(p, ctx)
				p.Work(200)
			}
			if dispatchDepth(m) >= 2 {
				nested++
			}
		})
	}
	res := m.Run(0)
	stats := ""
	for _, p := range procs {
		stats += fmt.Sprintf("[ops=%d parks=%d t=%d]", p.Ops, p.Parks, p.time)
	}
	if nested < len(procs)-1 {
		t.Fatalf("%d of %d workloads returned while nested; the test is vacuous", nested, len(procs))
	}
	if got, want := res.String(), "{Now:112069 Events:2346 Deadlock:false ParkedCPUs:[]}"; got != want {
		t.Errorf("Result = %s, want %s", got, want)
	}
	if want := "[ops=58 parks=7 t=25800][ops=116 parks=14 t=44726][ops=178 parks=23 t=66484][ops=240 parks=32 t=85316][ops=298 parks=39 t=94607][ops=352 parks=43 t=102594][ops=404 parks=48 t=110762][ops=438 parks=48 t=112069]"; stats != want {
		t.Errorf("proc stats differ:\ngot:  %s\nwant: %s", stats, want)
	}
}

// TestPingPongSwitchPerHandoff pins the cost of nested dispatch where it is
// lowest: in a two-thread ping-pong every handoff is one coroutine switch
// (a resume of the other thread, or a yield back to it), and the only other
// switches are the final unwinding, one per thread still on the dispatch
// stack when the run ends.
func TestPingPongSwitchPerHandoff(t *testing.T) {
	for _, horizon := range []int64{10_000, 100_000, 300_000} {
		m := New(Config{Machine: topo.X86Server()})
		var counter lockapi.Cell
		last, handoffs, endDepth := -1, uint64(0), 0
		// ran runs after every call that may give up the turn, so it sees
		// each change of the running thread.
		ran := func(p *Proc) {
			if p.cpu != last {
				handoffs++
				last = p.cpu
			}
			endDepth = dispatchDepth(m)
		}
		turn := func(p *Proc, parity uint64) {
			ran(p)
			for !p.Expired() {
				for {
					v := p.Load(&counter, lockapi.Acquire)
					ran(p)
					if v%2 == parity {
						break
					}
					p.Spin()
					ran(p)
					if p.Expired() {
						return
					}
				}
				p.Add(&counter, 1, lockapi.AcqRel)
				ran(p)
			}
		}
		m.Spawn(0, func(p *Proc) { turn(p, 0) })
		m.Spawn(5, func(p *Proc) { turn(p, 1) })
		res := m.Run(horizon)
		if handoffs < 100 {
			t.Fatalf("horizon %d: only %d handoffs", horizon, handoffs)
		}
		if want := handoffs + uint64(endDepth); res.Switches != want {
			t.Errorf("horizon %d: %d switches for %d handoffs and a final stack of %d, want %d",
				horizon, res.Switches, handoffs, endDepth, want)
		}
	}
}
