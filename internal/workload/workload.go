// Package workload drives lock benchmarks on the NUMA simulator: the
// two-thread ping-pong counter of §3.1 (hierarchy discovery) and the
// critical-section workloads that stand in for the paper's LevelDB
// readrandom and Kyoto Cabinet benchmarks (DESIGN.md §1).
//
// A workload iteration is: acquire the lock, touch the protected data cells,
// do critical-section think time, release, do out-of-lock think time. The
// presets' constants are calibrated so the simulated curves have the shape
// (not the absolute values) of the paper's figures: single-thread
// throughput, the contention level where throughput saturates, and the
// high-contention decline of NUMA-oblivious locks.
package workload

import (
	"fmt"

	"github.com/clof-go/clof/internal/faultinject"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/topo"
)

// LockFactory builds a fresh lock instance for one run.
type LockFactory func() lockapi.Lock

// Config parameterizes a simulated contention run.
type Config struct {
	// Machine is the simulated platform.
	Machine *topo.Machine
	// Threads is the contention level; ignored when CPUs is set.
	Threads int
	// CPUs optionally pins threads explicitly (cohort experiments, Fig. 3);
	// when nil, the paper's placement policy (topo.Placement) is used.
	CPUs []int
	// Horizon is the virtual duration in nanoseconds.
	Horizon int64
	// CSWork / NCSWork are the critical/non-critical think times (ns).
	// NCSWork is randomized ±50% per iteration to avoid lockstep cycles.
	CSWork, NCSWork int64
	// DataCells is the number of protected data cells written per critical
	// section.
	DataCells int
	// Seed makes the run reproducible; different seeds decorrelate runs.
	Seed uint64
	// JitterNS is per-operation timing jitter (0 = off).
	JitterNS int64
	// CPUSpeed optionally scales per-CPU compute time (big.LITTLE).
	CPUSpeed []float64
	// Faults, when non-nil, runs the workload under the given fault plan
	// (internal/faultinject): lock-holder preemptions, stalls, CS jitter,
	// and abandoned bounded acquires, all derived deterministically from
	// Seed. nil reproduces the unfaulted run exactly (no extra randomness
	// is drawn and no operation changes).
	Faults *faultinject.Plan
	// Trace, when non-nil, receives every committed memory operation
	// (memsim.Config.Trace) — the raw feed of internal/obs traffic counters
	// and clof-obs -events timelines.
	Trace func(memsim.TraceEvent)
	// Observer, when non-nil, receives the lock's protocol edges, reported
	// by Run around its Acquire, TryAcquire and Release calls (a failed try
	// reports nothing). Observation never changes the simulated schedule
	// (edges issue no memory operations).
	Observer lockapi.Observer
}

// Result summarizes a run.
type Result struct {
	// Total completed iterations and the per-thread split.
	Total     uint64
	PerThread []uint64
	// HandoverLevels histograms lock handovers by the sharing level of
	// consecutive owners (locality).
	HandoverLevels [5]uint64
	// Events / Now are simulator statistics.
	Events uint64
	Now    int64
	// ExclusionViolations counts critical sections entered while another
	// thread was still inside (must be 0 for a correct lock).
	ExclusionViolations uint64

	// Robustness statistics (all zero when Config.Faults is nil).
	//
	// Abandoned counts iterations whose bounded TryAcquire gave up;
	// Preemptions counts injected lock-holder preemptions; Stalls counts
	// injected out-of-lock stalls. MaxHandoverGapNS is the longest virtual
	// time between consecutive successful acquisitions across all threads —
	// the watchdog's max-handover-latency signal (a preempted holder shows
	// up here as a gap of roughly the preemption length).
	Abandoned        uint64
	Preemptions      uint64
	Stalls           uint64
	MaxHandoverGapNS int64
}

// ThroughputOpsPerUs returns iterations per virtual microsecond — the
// paper's y-axis unit ("iter./µs").
func (r Result) ThroughputOpsPerUs() float64 {
	if r.Now == 0 {
		return 0
	}
	return float64(r.Total) * 1000 / float64(r.Now)
}

// Starved returns the indices of threads that completed fewer than
// minShare of the mean per-thread iterations (e.g. minShare 0.05 flags
// threads below 5% of the mean). A non-empty result under a fault plan with
// a fair lock indicates starvation the lock should have prevented.
func (r Result) Starved(minShare float64) []int {
	n := len(r.PerThread)
	if n == 0 || r.Total == 0 {
		return nil
	}
	mean := float64(r.Total) / float64(n)
	var out []int
	for i, c := range r.PerThread {
		if float64(c) < minShare*mean {
			out = append(out, i)
		}
	}
	return out
}

// Jain returns Jain's fairness index of the per-thread counts.
func (r Result) Jain() float64 {
	var sum, sq float64
	for _, c := range r.PerThread {
		sum += float64(c)
		sq += float64(c) * float64(c)
	}
	if sq == 0 {
		return 0
	}
	n := float64(len(r.PerThread))
	return sum * sum / (n * sq)
}

// Run executes the workload and returns its result; it reports an error on
// deadlock (which would indicate a broken lock).
func Run(mk LockFactory, cfg Config) (Result, error) {
	cpus := cfg.CPUs
	if cpus == nil {
		var err error
		cpus, err = topo.Placement(cfg.Machine, cfg.Threads)
		if err != nil {
			return Result{}, err
		}
	}
	n := len(cpus)
	m := memsim.New(memsim.Config{Machine: cfg.Machine, Seed: cfg.Seed, JitterNS: cfg.JitterNS, CPUSpeed: cfg.CPUSpeed, Trace: cfg.Trace})
	l := mk()
	obs := cfg.Observer
	ctxs := make([]lockapi.Ctx, n)
	for i := range ctxs {
		ctxs[i] = l.NewCtx()
	}
	nData := cfg.DataCells
	if nData <= 0 {
		nData = 4
	}
	data := make([]lockapi.Cell, nData)

	// Compile the fault plan once per run; all of its randomness derives
	// from cfg.Seed, so fault timing is as reproducible as the simulation.
	var sched *faultinject.Schedule
	if cfg.Faults != nil {
		sched = faultinject.Compile(cfg.Faults, cfg.Seed, cpus)
	}
	tryLock, _ := l.(lockapi.TryLocker)
	canTry := lockapi.SupportsTry(l)

	res := Result{PerThread: make([]uint64, n)}
	lastOwner := -1
	lastAcqAt := int64(-1)
	held := false
	for i := 0; i < n; i++ {
		i := i
		m.Spawn(cpus[i], func(p *memsim.Proc) {
			// Randomized start offset: real threads never arrive at a lock
			// in perfect CPU order, and FIFO queues would keep that
			// artificially local cycle forever.
			p.Work(1 + p.Rand().Int63n(1000))
			for !p.Expired() {
				// The zero Decision injects nothing, so the unfaulted run
				// executes the exact operation sequence it always did.
				var d faultinject.Decision
				if sched != nil {
					d = sched.Next(p.CPU())
				}
				if d.PreStall > 0 {
					res.Stalls++
					p.Preempt(d.PreStall)
				}
				if d.Abandon && canTry {
					// Bounded acquire that pauses with local work: a
					// spinning pause (lockapi.ExpBackoff) may park on a line
					// the releaser never writes.
					backoff := int64(memsim.DefaultLatency(cfg.Machine.Arch).Hit) * lockapi.DefaultBackoffCap
					acquired := lockapi.AcquireBounded(tryLock, p, ctxs[i], d.AbandonAttempts, func() {
						p.Work(backoff)
						backoff *= 2
					})
					if !acquired {
						res.Abandoned++
						if cfg.NCSWork > 0 {
							p.Work(cfg.NCSWork/2 + p.Rand().Int63n(cfg.NCSWork+1))
						}
						continue
					}
					// A trylock never waits: both acquire edges land at
					// the success instant.
					if obs != nil {
						obs.AcquireStart(p)
						obs.Acquired(p)
					}
				} else {
					if obs != nil {
						obs.AcquireStart(p)
					}
					l.Acquire(p, ctxs[i])
					if obs != nil {
						obs.Acquired(p)
					}
				}
				if held {
					res.ExclusionViolations++
				}
				held = true
				if now := p.Time(); lastAcqAt >= 0 {
					if gap := now - lastAcqAt; gap > res.MaxHandoverGapNS {
						res.MaxHandoverGapNS = gap
					}
					lastAcqAt = now
				} else {
					lastAcqAt = now
				}
				if lastOwner >= 0 && lastOwner != p.CPU() {
					res.HandoverLevels[p.ShareLevel(lastOwner)]++
				}
				lastOwner = p.CPU()
				for d := range data {
					p.Add(&data[d], 1, lockapi.Relaxed)
				}
				if cfg.CSWork > 0 {
					p.Work(cfg.CSWork)
				}
				if d.CSJitter > 0 {
					p.Work(d.CSJitter)
				}
				if d.MidCS > 0 {
					// Lock-holder preemption: the OS deschedules us while
					// every waiter convoys behind the held lock.
					res.Preemptions++
					p.Preempt(d.MidCS)
				}
				held = false
				l.Release(p, ctxs[i])
				if obs != nil {
					obs.Released(p)
				}
				if cfg.NCSWork > 0 {
					p.Work(cfg.NCSWork/2 + p.Rand().Int63n(cfg.NCSWork+1))
				}
				res.PerThread[i]++
			}
		})
	}
	r := m.Run(cfg.Horizon)
	if r.Deadlock {
		return Result{}, fmt.Errorf("workload: deadlock, parked CPUs %v", r.ParkedCPUs)
	}
	for _, c := range res.PerThread {
		res.Total += c
	}
	res.Events = r.Events
	res.Now = r.Now
	return res, nil
}

// DefaultHorizon is the virtual duration used by the scripted benchmark
// (the paper's quick pass uses 1s wall time per point; 300µs of simulated
// time yields comparably stable medians at a fraction of the cost).
const DefaultHorizon = 300_000

// LevelDB returns the simulated LevelDB-readrandom preset: a short critical
// section (LevelDB holds its DB mutex only around memtable/version state)
// and ~2.4µs of out-of-lock read work, giving the paper's shape — ~0.35
// iter/µs single-threaded, saturation around 8–16 threads.
func LevelDB(m *topo.Machine, threads int) Config {
	return Config{
		Machine:   m,
		Threads:   threads,
		Horizon:   DefaultHorizon,
		CSWork:    300,
		NCSWork:   2400,
		DataCells: 4,
		JitterNS:  2,
	}
}

// Kyoto returns the simulated Kyoto-Cabinet preset: the global lock is held
// for the whole hash-table operation (long critical section), giving the
// paper's ~10× lower absolute throughput.
func Kyoto(m *topo.Machine, threads int) Config {
	return Config{
		Machine:   m,
		Threads:   threads,
		Horizon:   DefaultHorizon * 4,
		CSWork:    8000,
		NCSWork:   32000,
		DataCells: 12,
		JitterNS:  2,
	}
}

// PingPong is the §3.1 hierarchy-discovery microbenchmark: two threads
// alternate incrementing a shared counter for the horizon; the return value
// is increments per microsecond. Only the ratio between CPU placements
// matters (Fig. 1, Table 2).
func PingPong(m *topo.Machine, cpuA, cpuB int, horizon int64) float64 {
	if cpuA == cpuB {
		// Same CPU: the paper's diagonal. Two contexts cannot run on one
		// CPU in the simulator; the real machine's diagonal throughput is
		// minimal (reschedule-bound), so report 0.
		return 0
	}
	sim := memsim.New(memsim.Config{Machine: m})
	var counter lockapi.Cell
	var incs uint64
	turn := func(p *memsim.Proc, parity uint64) {
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
	sim.Spawn(cpuA, func(p *memsim.Proc) { turn(p, 0) })
	sim.Spawn(cpuB, func(p *memsim.Proc) { turn(p, 1) })
	r := sim.Run(horizon)
	if r.Now == 0 {
		return 0
	}
	return float64(incs) * 1000 / float64(r.Now)
}
