// Package locktest provides shared test harnesses for exercising locks
// natively (goroutines, race detector) and on the NUMA simulator (through
// internal/workload), used by the test suites of every lock package.
//
// # Determinism contract
//
// Simulator runs (SimRun) are fully deterministic: every source of
// randomness — operation jitter, per-thread start offsets, think-time
// spread, and fault-plan timing — derives from the single
// workload.Config.Seed. Two SimRun calls with equal workload.Config and the
// same lock constructor produce equal workload.Result values field for
// field, which is what the figures' byte-identical CSVs (the chaos sweep's
// included) build on. Mutating any Config field, including attaching a
// fault plan, changes only the derived streams it must (a nil Faults plan
// draws nothing extra).
//
// Native runs (NativeStress) are NOT deterministic and cannot be: goroutine
// interleaving belongs to the OS scheduler. They verify safety (mutual
// exclusion, via the race detector and the counter check), not timing.
package locktest

import (
	"sync"
	"testing"

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
