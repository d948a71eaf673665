package memsim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// lockRun executes one contended-lock simulation and returns everything
// observable about it: the machine Result, a hash of the full trace stream
// (zero when traced is false, and the run has no trace hook), per-thread
// op/park/spin counters, and the total of completed acquires. It is the
// probe that pins the execution core's schedule.
func lockRun(mach *topo.Machine, mk func() lockapi.Lock, n int, dur int64, cfg Config, traced bool) (Result, uint64, string, uint64) {
	h := fnv.New64a()
	cfg.Machine = mach
	if traced {
		cfg.Trace = func(ev TraceEvent) {
			fmt.Fprintf(h, "%d/%d/%s/%d/%d;", ev.Time, ev.CPU, ev.Op, ev.Value, ev.Cost)
		}
	}
	m := New(cfg)
	l := mk()
	var shared lockapi.Cell
	var total uint64
	stats := ""
	procs := make([]*Proc, n)
	step := mach.NumCPUs() / n
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i++ {
		i := i
		ctx := l.NewCtx()
		procs[i] = m.Spawn((i*step)%mach.NumCPUs(), func(p *Proc) {
			for !p.Expired() {
				l.Acquire(p, ctx)
				p.Add(&shared, 1, lockapi.Relaxed)
				p.Work(50)
				l.Release(p, ctx)
				p.Work(200)
				total++
				// A sprinkle of preemption keeps the slow path's
				// park/preempt interactions in the compared schedule.
				if total%97 == 0 {
					p.Preempt(500)
				}
			}
		})
	}
	res := m.Run(dur)
	for _, p := range procs {
		stats += fmt.Sprintf("[ops=%d parks=%d spins=%d preempts=%d t=%d]", p.Ops, p.Parks, p.Spins, p.Preempts, p.time)
	}
	if !traced {
		return res, 0, stats, total
	}
	return res, h.Sum64(), stats, total
}

// TestRunAheadEquivalence pins the execution core's schedule: with the
// run-ahead fast path granting most events inline and coroutines granting
// the rest, every observable of the simulation — final time, event count,
// the complete (time, cpu, op, value, cost) trace stream, per-thread
// counters, the acquire total — equals the values the scheduler-only
// channel protocol produced. Jitter is on so the RNG draw order is part of
// what is pinned. Each case runs once more without a trace hook, which
// must not move the schedule: its Result (Switches included), per-thread
// counters and acquire total must equal the traced run's.
func TestRunAheadEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mach  *topo.Machine
		lock  string
		res   string
		hash  uint64
		stats string
		total uint64
	}{
		{"mcs/x86", topo.X86Server(), "mcs",
			"{Now:150000 Events:3085 Deadlock:false ParkedCPUs:[0 12 36 48 60 84]}", 0x4483039c148d9124,
			"[ops=347 parks=45 spins=45 preempts=1 t=149245][ops=338 parks=46 spins=46 preempts=0 t=149437][ops=338 parks=45 spins=45 preempts=0 t=150211][ops=338 parks=46 spins=46 preempts=0 t=146626][ops=338 parks=45 spins=46 preempts=0 t=147815][ops=338 parks=46 spins=46 preempts=0 t=149114][ops=348 parks=45 spins=46 preempts=0 t=150130][ops=336 parks=45 spins=45 preempts=0 t=147060]",
			178},
		{"tkt/x86", topo.X86Server(), "tkt",
			"{Now:150000 Events:2925 Deadlock:false ParkedCPUs:[0]}", 0x51757b40cd1375b0,
			"[ops=295 parks=102 spins=102 preempts=1 t=149838][ops=281 parks=98 spins=98 preempts=0 t=150211][ops=269 parks=91 spins=92 preempts=0 t=150273][ops=257 parks=85 spins=86 preempts=0 t=150020][ops=276 parks=94 spins=95 preempts=0 t=150049][ops=263 parks=88 spins=89 preempts=0 t=150082][ops=281 parks=96 spins=98 preempts=0 t=150498][ops=261 parks=87 spins=88 preempts=0 t=150198]",
			113},
		{"hem-ctr/armv8", topo.Armv8Server(), "hem-ctr",
			"{Now:150000 Events:188108 Deadlock:false ParkedCPUs:[]}", 0x4aca292e663484d8,
			"[ops=22134 parks=0 spins=11049 preempts=0 t=150006][ops=24536 parks=0 spins=12254 preempts=0 t=150005][ops=22007 parks=0 spins=10985 preempts=0 t=150003][ops=24100 parks=0 spins=12035 preempts=0 t=150743][ops=24568 parks=0 spins=12270 preempts=0 t=150004][ops=24505 parks=0 spins=12238 preempts=0 t=150002][ops=22931 parks=0 spins=11447 preempts=0 t=150006][ops=23327 parks=0 spins=11646 preempts=0 t=150746]",
			27},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 42, JitterNS: 3}
			r, h, s, total := lockRun(tc.mach, locks.MustType(tc.lock).New, 8, 150_000, cfg, true)
			if got := fmt.Sprintf("%+v", r); got != tc.res {
				t.Errorf("Result = %s, want %s", got, tc.res)
			}
			if h != tc.hash {
				t.Errorf("trace stream hash = %#x, want %#x", h, tc.hash)
			}
			if s != tc.stats {
				t.Errorf("proc stats differ:\ngot:  %s\nwant: %s", s, tc.stats)
			}
			if total != tc.total {
				t.Errorf("acquire total = %d, want %d", total, tc.total)
			}
			ur, _, us, utotal := lockRun(tc.mach, locks.MustType(tc.lock).New, 8, 150_000, cfg, false)
			if !reflect.DeepEqual(ur, r) || us != s || utotal != total {
				t.Errorf("untraced run differs from traced run:\ngot:  %+v %d %s\nwant: %+v %d %s",
					ur, utotal, us, r, total, s)
			}
		})
	}
}

// pingPongOps runs the two-thread ping-pong workload (spin, park, wake,
// RMW — the simulator's steady-state shape) with tracing and jitter off,
// and reports the number of simulated operations executed and the run's
// Result.
func pingPongOps(horizon int64) (uint64, Result) {
	m := New(Config{Machine: topo.X86Server()})
	var counter lockapi.Cell
	turn := func(p *Proc, parity uint64) {
		for !p.Expired() {
			for p.Load(&counter, lockapi.Acquire)%2 != parity {
				p.Spin()
				if p.Expired() {
					return
				}
			}
			p.Add(&counter, 1, lockapi.AcqRel)
		}
	}
	pa := m.Spawn(0, func(p *Proc) { turn(p, 0) })
	pb := m.Spawn(5, func(p *Proc) { turn(p, 1) })
	res := m.Run(horizon)
	return pa.Ops + pb.Ops, res
}

// mcsOps runs a two-thread contended MCS loop, tracing and jitter off, and
// reports simulated operations and the run's Result: a queue lock's
// handover path (node publication, local spinning, successor wake-up) must
// not allocate per operation.
func mcsOps(horizon int64) (uint64, Result) {
	m := New(Config{Machine: topo.X86Server()})
	l := locks.NewMCS()
	var shared lockapi.Cell
	ctxA, ctxB := l.NewCtx(), l.NewCtx()
	loop := func(ctx lockapi.Ctx) func(p *Proc) {
		return func(p *Proc) {
			for !p.Expired() {
				l.Acquire(p, ctx)
				p.Add(&shared, 1, lockapi.Relaxed)
				l.Release(p, ctx)
			}
		}
	}
	pa := m.Spawn(0, loop(ctxA))
	pb := m.Spawn(5, loop(ctxB))
	res := m.Run(horizon)
	return pa.Ops + pb.Ops, res
}

// TestNoTraceZeroAllocs enforces the zero-allocations-per-operation
// guarantee: in no-trace, no-jitter steady state, running 10x longer must
// not allocate more. All per-run setup (machine, lines, goroutines, slice
// growth to steady state) cancels out in the subtraction, so any residue
// would be a per-operation allocation on the hot path. The mcs-lock
// subtest extends the guarantee from raw memory operations to a lock
// protocol running on the simulator.
func TestNoTraceZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	for _, tc := range []struct {
		name string
		run  func(horizon int64) (uint64, Result)
	}{
		{"pingpong", pingPongOps},
		{"mcs-lock", mcsOps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opsShort, opsLong uint64
			allocShort := testing.AllocsPerRun(5, func() { opsShort, _ = tc.run(100_000) })
			allocLong := testing.AllocsPerRun(5, func() { opsLong, _ = tc.run(1_000_000) })
			extraOps := opsLong - opsShort
			if extraOps == 0 {
				t.Fatal("horizon change produced no extra ops; test is vacuous")
			}
			// Tolerate a few stray allocations (runtime bookkeeping noise),
			// but a per-op allocation would show up as thousands here.
			if delta := allocLong - allocShort; delta > 8 {
				t.Errorf("hot path allocates: %.0f extra allocs over %d extra ops (%.4f/op)",
					delta, extraOps, delta/float64(extraOps))
			}
		})
	}
}

// lockScenario runs one fixed-horizon contended-lock simulation — n threads
// spread evenly over mach, every one hammering one lock — and returns the
// number of simulated operations, the number of completed acquire–release
// pairs and the run's Result. n = mach.NumCPUs() is the full-machine run:
// one thread per vCPU.
func lockScenario(mach *topo.Machine, lockName string, n int) (ops, pairs uint64, res Result) {
	m := New(Config{Machine: mach})
	l := mustScaleLock(mach, lockName)
	var shared lockapi.Cell
	step := mach.NumCPUs() / n
	if step == 0 {
		step = 1
	}
	procs := make([]*Proc, n)
	for j := 0; j < n; j++ {
		ctx := l.NewCtx()
		procs[j] = m.Spawn((j*step)%mach.NumCPUs(), func(p *Proc) {
			for !p.Expired() {
				l.Acquire(p, ctx)
				p.Add(&shared, 1, lockapi.Relaxed)
				p.Work(50)
				l.Release(p, ctx)
				pairs++
				p.Work(200)
			}
		})
	}
	res = m.Run(300_000)
	for _, p := range procs {
		ops += p.Ops
	}
	return ops, pairs, res
}

// mustScaleLock builds lockName for mach: a CLoF composition when the name
// is a '-' separated 4-level list matching DeepHierarchy, a basic lock
// otherwise.
func mustScaleLock(mach *topo.Machine, lockName string) lockapi.Lock {
	if comp, err := clof.ParseComposition(lockName); err == nil && len(comp) == 4 {
		l, err := clof.New(topo.DeepHierarchy(mach), comp)
		if err != nil {
			panic(err)
		}
		return l
	}
	return locks.MustType(lockName).New()
}

// benchSim times b.N runs of one fixed-horizon scenario. It reports the
// simulator's real-time throughput (simops/s: simulated memory operations
// per wall-clock second, the headline number), the simulated operations per
// run (simops/op) and the coroutine switches per run (switches/op,
// Result.Switches). The last two are deterministic: a change in simops/op
// means the rung now simulates something else, one in switches/op that the
// execution core now takes turns differently.
func benchSim(b *testing.B, run func() (uint64, Result)) {
	b.ReportAllocs()
	var ops, switches uint64
	for i := 0; i < b.N; i++ {
		n, res := run()
		ops += n
		switches += res.Switches
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
	b.ReportMetric(float64(ops)/float64(b.N), "simops/op")
	b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
}

// benchLock is benchSim over lockScenario. It also reports vns/op, the
// virtual time per completed acquire–release pair (Result.Now over the
// pairs), which is as deterministic as simops/op: it moves only when the
// rung's simulated schedule does.
func benchLock(b *testing.B, mach *topo.Machine, lockName string, n int) {
	var vns, pairs uint64
	benchSim(b, func() (uint64, Result) {
		ops, done, res := lockScenario(mach, lockName, n)
		vns += uint64(res.Now)
		pairs += done
		return ops, res
	})
	b.ReportMetric(float64(vns)/float64(pairs), "vns/op")
}

// The BenchmarkMachine suite measures the simulator's real-time throughput
// on its dominant shapes: the two-thread ping-pong, contended locks on the
// paper's two platforms, and full-machine runs on the deep topologies.

func BenchmarkMachinePingPong(b *testing.B) {
	benchSim(b, func() (uint64, Result) { return pingPongOps(300_000) })
}

func BenchmarkMachineMCS8(b *testing.B)  { benchLock(b, topo.X86Server(), "mcs", 8) }
func BenchmarkMachineTkt8(b *testing.B)  { benchLock(b, topo.X86Server(), "tkt", 8) }
func BenchmarkMachineMCS32(b *testing.B) { benchLock(b, topo.X86Server(), "mcs", 32) }

func BenchmarkMachineHemCtr8Armv8(b *testing.B) {
	benchLock(b, topo.Armv8Server(), "hem-ctr", 8)
}

// The BenchmarkMachineScale rungs are full-machine runs on the deep
// topologies: every vCPU contends for one lock. The tkt rungs are the
// event-queue stress (global spinning parks every waiter on one line, so
// each release wakes hundreds of watchers at once); the MCS and CLoF rungs
// are the queue-lock and composed-lock shapes.

func BenchmarkMachineScale256(b *testing.B)  { benchLock(b, topo.DeepServer256(), "tkt", 256) }
func BenchmarkMachineScale512(b *testing.B)  { benchLock(b, topo.DeepServer512(), "tkt", 512) }
func BenchmarkMachineScale1024(b *testing.B) { benchLock(b, topo.DeepServer1024(), "tkt", 1024) }

func BenchmarkMachineScale1024MCS(b *testing.B) {
	benchLock(b, topo.DeepServer1024(), "mcs", 1024)
}

func BenchmarkMachineScale1024CLoF(b *testing.B) {
	benchLock(b, topo.DeepServer1024(), "tkt-tkt-tkt-tkt", 1024)
}
