// Quickstart: compose a multi-level NUMA-aware lock from paper notation and
// use it from goroutines to protect a shared counter.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	clof "github.com/clof-go/clof"
)

func main() {
	// The paper's 4-level Armv8 hierarchy: cache-group, NUMA, package,
	// system. "tkt-clh-tkt-tkt" is the paper's LC-best lock for that
	// platform: Ticketlock at the cache-group level, CLH at the NUMA level,
	// Ticketlocks above.
	h := clof.ArmHierarchy4()
	lock := clof.MustNewLock(h, "tkt-clh-tkt-tkt")
	fmt.Printf("composed %s over %s\n", lock.Name(), h)

	const workers = 16
	const iters = 50_000

	// Workers are placed on CPUs with the paper's pinning policy; the Proc
	// id tells the lock which leaf cohort the worker belongs to. (Go cannot
	// actually pin goroutines — see DESIGN.md §1 — so this declares
	// intent; the lock still behaves correctly regardless.)
	cpus, err := clof.Placement(h.Machine, workers)
	if err != nil {
		panic(err)
	}

	// One context per worker, allocated during single-threaded setup.
	ctxs := make([]clof.Ctx, workers)
	for i := range ctxs {
		ctxs[i] = lock.NewCtx()
	}

	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := clof.NewNativeProc(cpus[id])
			for i := 0; i < iters; i++ {
				lock.Acquire(p, ctxs[id])
				counter++ // protected: no atomics needed
				lock.Release(p, ctxs[id])
			}
		}(w)
	}
	wg.Wait()

	fmt.Printf("counter = %d (want %d)\n", counter, workers*iters)
	if counter != workers*iters {
		panic("mutual exclusion violated")
	}
}
