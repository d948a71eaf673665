// customlock: extend CLoF with a user-provided basic lock (the paper's A3
// workflow — "once a new NUMA-oblivious lock is designed ... the process can
// be repeated").
//
// The example implements a partitioned-counting "anderson-style" array lock
// (a fixed-slot array queue lock: fair, local-spinning, no per-thread
// context allocation during acquire), verifies it with the built-in model
// checker, composes it with the stock basic locks, and measures the result
// against an all-stock composition on the simulator.
//
//	go run ./examples/customlock
package main

import (
	"fmt"
	"os"

	clof "github.com/clof-go/clof"
)

// ArrayLock is an Anderson-style array queue lock: slot i holds "1" when it
// may run. Acquirers take a slot with fetch-and-add and spin locally on it;
// release grants the next slot. Fair and local-spinning, with a fixed
// capacity (slots must be >= the maximum number of contenders).
type ArrayLock struct {
	next  clof.Cell
	slots []clof.Cell
	mask  uint64
}

// NewArrayLock builds an array lock with the given power-of-two capacity.
func NewArrayLock(capacity int) *ArrayLock {
	l := &ArrayLock{slots: make([]clof.Cell, capacity), mask: uint64(capacity - 1)}
	l.slots[0].Init(1) // the first acquirer runs immediately
	return l
}

// NewCtx implements clof.Lock: the context remembers the taken slot.
func (l *ArrayLock) NewCtx() clof.Ctx { return &arrayCtx{} }

type arrayCtx struct{ slot uint64 }

// Acquire implements clof.Lock.
func (l *ArrayLock) Acquire(p clof.Proc, c clof.Ctx) {
	ctx := c.(*arrayCtx)
	ctx.slot = (p.Add(&l.next, 1, clof.AcqRel) - 1) & l.mask
	for p.Load(&l.slots[ctx.slot], clof.Acquire) == 0 {
		p.Spin()
	}
}

// Release implements clof.Lock: reset our slot, grant the next.
func (l *ArrayLock) Release(p clof.Proc, c clof.Ctx) {
	ctx := c.(*arrayCtx)
	//lint:order relaxed-ok own-slot reset; the Release grant store below orders it before the handover
	p.Store(&l.slots[ctx.slot], 0, clof.Relaxed)
	p.Store(&l.slots[(ctx.slot+1)&l.mask], 1, clof.Release)
}

func main() {
	// Step 1 (paper Fig. 5: "verify correctness"): model-check the new lock
	// before composing it — mutual exclusion, deadlock freedom, spinloop
	// termination, and data visibility under the weak memory model.
	fmt.Println("step 1: verifying the array lock with the model checker")
	for _, mode := range []struct {
		name string
		m    clof.CheckConfig
	}{
		{"sc", clof.CheckConfig{Mode: clof.ModelSC}},
		{"wmm", clof.CheckConfig{Mode: clof.ModelWMM}},
	} {
		prog := clof.LockCheckProgram("arraylock", 3, 1, func() clof.Lock { return NewArrayLock(8) })
		res := clof.Check(prog, mode.m)
		if !res.OK {
			fmt.Fprintf(os.Stderr, "  %s: VERIFICATION FAILED: %s\n", mode.name, res.Violation)
			os.Exit(1)
		}
		fmt.Printf("  %s: verified (%d states, %d executions)\n", mode.name, res.States, res.Executions)
	}

	// Step 2: register it as a basic-lock type and compose. Here the array
	// lock serves the cache-group level (few contenders per cohort, so a
	// small slot array suffices) under stock CLH/Ticket locks.
	arr := clof.LockType{
		Name: "arr",
		New:  func() clof.Lock { return NewArrayLock(8) },
	}
	tkt, _ := clof.LockTypeByName("tkt")
	clh, _ := clof.LockTypeByName("clh")

	h := clof.ArmHierarchy3()
	custom := clof.Composition{arr, clh, tkt}
	lock, err := clof.Compose(h, custom)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nstep 2: composed %s over %s\n", lock.Name(), h)

	// Step 3: measure against an all-stock composition on the simulator.
	fmt.Println("\nstep 3: simulated LevelDB at 32 and 127 threads")
	for _, n := range []int{32, 127} {
		for _, e := range []struct {
			name string
			comp clof.Composition
		}{
			{"arr-clh-tkt (custom)", custom},
			{"tkt-clh-tkt (stock) ", clof.Composition{tkt, clh, tkt}},
		} {
			e := e
			res, err := clof.RunWorkload(func() clof.Lock {
				l, _ := clof.Compose(h, e.comp)
				return l
			}, clof.LevelDBWorkload(h.Machine, n))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("  %3d threads  %s  %6.3f iter/µs\n", n, e.name, res.ThroughputOpsPerUs())
		}
	}
}
