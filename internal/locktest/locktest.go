// Package locktest provides shared test harnesses for exercising locks
// natively (goroutines, race detector) and on the NUMA simulator (through
// internal/workload), used by the test suites of every lock package. It also
// hosts the robustness harness: fault-plan-driven runs
// (workload.Config.Faults, ChaosNative) and the starvation/livelock
// watchdog.
//
// # Determinism contract
//
// Simulator runs (SimRun) are fully deterministic: every source of
// randomness — operation jitter, per-thread start offsets, think-time
// spread, and fault-plan timing — derives from the single
// workload.Config.Seed. Two SimRun calls with equal workload.Config and the
// same lock constructor produce equal workload.Result values field for
// field, which is what the chaos CLI's byte-identical-CSV guarantee builds
// on. Mutating any Config field, including attaching a fault plan, changes
// only the derived streams it must (a nil Faults plan draws nothing extra).
//
// Native runs (NativeStress, ChaosNative) are NOT deterministic and cannot
// be: goroutine interleaving belongs to the OS scheduler. The seed still
// fixes the fault *schedule* (which iterations of which worker are stalled,
// preempted, or abandoned — pre-drawn per worker before the goroutines
// start), so a native chaos failure reproduces with the same seed as often
// as the underlying thread interleaving does. Native harnesses verify
// safety (mutual exclusion, via the race detector and the counter check)
// and liveness (the watchdog); they do not verify timing.
package locktest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clof-go/clof/internal/faultinject"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// NativeStress drives `workers` goroutines through `iters` critical sections
// each, incrementing an unprotected counter; lost updates (or -race reports)
// indicate a mutual-exclusion violation. Worker IDs are mapped to CPUs of
// the machine with the paper's placement policy so NUMA-aware locks resolve
// their cohorts.
//
// The final counter read is synchronized: every worker's last increment
// happens-before its wg.Done, and wg.Wait happens-before the read, so the
// check itself is race-free; it is the increments *between* workers that
// only the lock under test orders (that is the point of the harness — if
// the lock is broken, -race flags the counter and the total comes up short).
func NativeStress(t testing.TB, l lockapi.Lock, mach *topo.Machine, workers, iters int) {
	t.Helper()
	cpus := topo.MustPlacement(mach, workers)
	ctxs := make([]lockapi.Ctx, workers)
	for i := range ctxs {
		ctxs[i] = l.NewCtx()
	}
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(cpus[id])
			for i := 0; i < iters; i++ {
				l.Acquire(p, ctxs[id])
				counter++
				l.Release(p, ctxs[id])
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*iters {
		t.Errorf("counter = %d, want %d (mutual exclusion violated)", counter, workers*iters)
	}
}

// SimRun runs the canonical lock benchmark loop on the simulator and fails
// the test on deadlock or mutual-exclusion violation.
func SimRun(t testing.TB, mk func() lockapi.Lock, cfg workload.Config) workload.Result {
	t.Helper()
	res, err := workload.Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExclusionViolations > 0 {
		t.Errorf("mutual exclusion violated %d times", res.ExclusionViolations)
	}
	return res
}

// Watchdog asserts liveness properties of a simulated run. The zero value
// checks nothing; set the fields you want gated.
type Watchdog struct {
	// MaxHandoverGapNS fails the check if the longest gap between
	// consecutive acquisitions exceeds this bound (0 = no bound). Under
	// fault plans, size it from the injected preemption length — a fair
	// lock's gap should be the preemption plus a handover, not a multiple.
	MaxHandoverGapNS int64
	// MinShare fails the check if any thread completed fewer than this
	// fraction of the mean per-thread iterations (0 = no bound). 0.05 is
	// the paper-default anti-starvation gate.
	MinShare float64
}

// Check applies the watchdog to a result, returning a description of the
// first violation or "" when the run is live.
func (w Watchdog) Check(res workload.Result) string {
	if w.MaxHandoverGapNS > 0 && res.MaxHandoverGapNS > w.MaxHandoverGapNS {
		return fmt.Sprintf("max handover gap %dns exceeds bound %dns", res.MaxHandoverGapNS, w.MaxHandoverGapNS)
	}
	if w.MinShare > 0 {
		if starved := res.Starved(w.MinShare); len(starved) != 0 {
			return fmt.Sprintf("threads %v below %.0f%% of mean progress (per-thread %v)", starved, w.MinShare*100, res.PerThread)
		}
	}
	return ""
}

// Require fails t if the watchdog finds a violation.
func (w Watchdog) Require(t testing.TB, res workload.Result) {
	t.Helper()
	if msg := w.Check(res); msg != "" {
		t.Error("watchdog: " + msg)
	}
}

// ChaosStats summarizes a ChaosNative run.
type ChaosStats struct {
	// Completed is the total number of critical sections entered.
	Completed uint64
	// Abandoned counts bounded acquires that gave up.
	Abandoned uint64
	// Preemptions / Stalls count injected sleeps (in and out of the lock).
	Preemptions uint64
	Stalls      uint64
}

// nativeStallTimeout is how long ChaosNative's watchdog tolerates zero
// global progress before declaring a livelock/deadlock. Generous: the race
// detector and CI machines are slow, and injected sleeps park real workers.
const nativeStallTimeout = 10 * time.Second

// ChaosNative is NativeStress under a fault plan: injected sleeps stand in
// for preemptions and stalls, Abandon decisions use the lock's TryAcquire
// (skipped when the lock declines the capability), and a watchdog goroutine
// monitors per-worker progress counters, failing the test if global
// progress halts for nativeStallTimeout. The fault schedule is pre-drawn
// per worker from seed before any goroutine starts (see the package
// determinism contract).
func ChaosNative(t testing.TB, l lockapi.Lock, mach *topo.Machine, plan *faultinject.Plan, workers, iters int, seed uint64) ChaosStats {
	t.Helper()
	cpus := topo.MustPlacement(mach, workers)
	ctxs := make([]lockapi.Ctx, workers)
	for i := range ctxs {
		ctxs[i] = l.NewCtx()
	}
	// Pre-draw each worker's decision sequence: Schedule is single-stream
	// state, but its per-CPU decisions are independent, so a sequential
	// drain here equals any interleaved drain.
	sched := faultinject.Compile(plan, seed, cpus)
	decisions := make([][]faultinject.Decision, workers)
	for w := 0; w < workers; w++ {
		decisions[w] = make([]faultinject.Decision, iters)
		for i := 0; i < iters; i++ {
			decisions[w][i] = sched.Next(cpus[w])
		}
	}
	canTry := lockapi.SupportsTry(l)

	var counter uint64 // lock-protected; the mutual-exclusion oracle
	var stats ChaosStats
	progress := make([]uint64, workers) // atomic per-worker counters
	var abandoned, preempts, stalls uint64

	done := make(chan struct{})
	watchErr := make(chan string, 1)
	go func() {
		// Liveness watchdog: global progress must never stop while workers
		// remain. Per-worker counters let the failure name the stuck ones.
		lastTotal := uint64(0)
		lastChange := time.Now()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var total uint64
				for w := range progress {
					total += atomic.LoadUint64(&progress[w])
				}
				if total != lastTotal {
					lastTotal, lastChange = total, time.Now()
					continue
				}
				if time.Since(lastChange) > nativeStallTimeout {
					stuck := []int{}
					for w := range progress {
						if atomic.LoadUint64(&progress[w]) < uint64(iters) {
							stuck = append(stuck, w)
						}
					}
					select {
					case watchErr <- fmt.Sprintf("no progress for %v; stuck workers %v", nativeStallTimeout, stuck):
					default:
					}
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(cpus[id])
			for i := 0; i < iters; i++ {
				d := decisions[id][i]
				if d.PreStall > 0 {
					atomic.AddUint64(&stalls, 1)
					time.Sleep(time.Duration(d.PreStall) * time.Nanosecond)
				}
				entered := false
				if d.Abandon && canTry {
					_, acquired := lockapi.AcquireBounded(l, p, ctxs[id], d.AbandonAttempts, nil)
					if acquired {
						entered = true
					} else {
						atomic.AddUint64(&abandoned, 1)
					}
				} else {
					l.Acquire(p, ctxs[id])
					entered = true
				}
				if entered {
					counter++
					if d.CSJitter > 0 || d.MidCS > 0 {
						if d.MidCS > 0 {
							atomic.AddUint64(&preempts, 1)
						}
						// Sleeping with the lock held: the injected
						// lock-holder preemption.
						time.Sleep(time.Duration(d.CSJitter+d.MidCS) * time.Nanosecond)
					}
					l.Release(p, ctxs[id])
				}
				atomic.AddUint64(&progress[id], 1)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	select {
	case msg := <-watchErr:
		t.Error("chaos watchdog: " + msg)
	default:
	}

	stats.Completed = counter
	stats.Abandoned = atomic.LoadUint64(&abandoned)
	stats.Preemptions = atomic.LoadUint64(&preempts)
	stats.Stalls = atomic.LoadUint64(&stalls)
	if want := uint64(workers*iters) - stats.Abandoned; counter != want {
		t.Errorf("counter = %d, want %d (%d×%d - %d abandoned): mutual exclusion violated",
			counter, want, workers, iters, stats.Abandoned)
	}
	return stats
}
