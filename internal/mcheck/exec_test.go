package mcheck

// White-box tests of the checker's execution semantics: store-buffer rules
// per memory model, await collapsing, and state deduplication. These pin the
// machinery the lock-verification results rest on.

import (
	"runtime"
	"testing"
	"time"

	"github.com/clof-go/clof/internal/lockapi"
)

// twoThreads builds a program from two explicit bodies plus a final check.
func twoThreads(a, b func(p *Proc), final func(read func(*lockapi.Cell) uint64) string) Program {
	return Program{
		Name:  "unit",
		Make:  func() []func(p *Proc) { return []func(p *Proc){a, b} },
		Final: final,
	}
}

// TestSBOutcomes enumerates SB outcomes explicitly: a third cell records
// r0*2 + r1 per execution; the final check whitelists per-mode outcomes and
// we assert the weak outcome's reachability via a violating canary program.
func TestSBOutcomes(t *testing.T) {
	build := func() (Program, *lockapi.Cell, *lockapi.Cell) {
		var x, y lockapi.Cell
		var r0cell, r1cell lockapi.Cell
		prog := twoThreads(
			func(p *Proc) {
				p.Store(&x, 1, lockapi.Relaxed)
				v := p.Load(&y, lockapi.Relaxed)
				p.Store(&r0cell, v+1, lockapi.SeqCst) // +1: distinguish "ran"
			},
			func(p *Proc) {
				p.Store(&y, 1, lockapi.Relaxed)
				v := p.Load(&x, lockapi.Relaxed)
				p.Store(&r1cell, v+1, lockapi.SeqCst)
			},
			nil,
		)
		return prog, &r0cell, &r1cell
	}

	// Under SC, r0==0 && r1==0 must be unreachable: make it a violation and
	// expect a clean pass.
	prog, r0, r1 := build()
	prog.Final = func(read func(*lockapi.Cell) uint64) string {
		if read(r0) == 1 && read(r1) == 1 {
			return "weak SB outcome under SC"
		}
		return ""
	}
	if res := Check(prog, Config{Mode: SC}); !res.OK {
		t.Fatalf("SC reached the weak SB outcome: %s", res.Violation)
	}

	// Under TSO the weak outcome must be reachable: same canary must trip.
	prog, r0, r1 = build()
	prog.Final = func(read func(*lockapi.Cell) uint64) string {
		if read(r0) == 1 && read(r1) == 1 {
			return "weak outcome reached (expected)"
		}
		return ""
	}
	if res := Check(prog, Config{Mode: TSO}); res.OK {
		t.Fatal("TSO did not reach the weak SB outcome")
	}
}

// TestMPlitmus is message passing (MP): T0 writes data then sets a flag;
// T1 awaits the flag then reads data. With a Release flag-store the stale
// read must be impossible even under WMM; with Relaxed stores WMM must
// reach it.
func TestMPLitmus(t *testing.T) {
	build := func(flagOrder lockapi.Order) Program {
		var data, flag, out lockapi.Cell
		return twoThreads(
			func(p *Proc) {
				p.Store(&data, 42, lockapi.Relaxed)
				p.Store(&flag, 1, flagOrder)
			},
			func(p *Proc) {
				for p.Load(&flag, lockapi.Acquire) == 0 {
					p.Spin()
				}
				p.Store(&out, p.Load(&data, lockapi.Relaxed)+1, lockapi.SeqCst)
			},
			func(read func(*lockapi.Cell) uint64) string {
				if read(&out) == 1 { // data read as 0
					return "stale data after flag observed"
				}
				return ""
			},
		)
	}
	if res := Check(build(lockapi.Release), Config{Mode: WMM}); !res.OK {
		t.Fatalf("WMM broke MP despite Release flag store: %s", res.Violation)
	}
	if res := Check(build(lockapi.Relaxed), Config{Mode: WMM}); res.OK {
		t.Fatal("WMM did not reorder relaxed MP stores")
	}
	// TSO keeps same-thread stores in order: relaxed MP is still safe.
	if res := Check(build(lockapi.Relaxed), Config{Mode: TSO}); !res.OK {
		t.Fatalf("TSO reordered same-thread stores: %s", res.Violation)
	}
}

// TestRMWDrainsBuffer: an RMW must flush the thread's own store buffer
// before acting (atomics are ordering points).
func TestRMWDrainsBuffer(t *testing.T) {
	var x, y lockapi.Cell
	prog := twoThreads(
		func(p *Proc) {
			p.Store(&x, 1, lockapi.Relaxed) // buffered
			p.Add(&y, 1, lockapi.AcqRel)    // must flush x first
		},
		func(p *Proc) {
			// If y is visible (post-RMW), x must be visible too.
			if p.Load(&y, lockapi.Acquire) == 1 {
				p.Assert(p.Load(&x, lockapi.Relaxed) == 1, "RMW did not drain the store buffer")
			}
		},
		nil,
	)
	for _, mode := range []Mode{TSO, WMM} {
		if res := Check(prog, Config{Mode: mode}); !res.OK {
			t.Fatalf("%v: %s (witness %v)", mode, res.Violation, res.Witness)
		}
	}
}

// TestSameLocationCoherence: WMM must not reorder two stores to the same
// cell (per-location coherence).
func TestSameLocationCoherence(t *testing.T) {
	var x lockapi.Cell
	prog := twoThreads(
		func(p *Proc) {
			p.Store(&x, 1, lockapi.Relaxed)
			p.Store(&x, 2, lockapi.Relaxed)
		},
		func(p *Proc) {},
		func(read func(*lockapi.Cell) uint64) string {
			if v := read(&x); v != 2 {
				return "stores to one location reordered"
			}
			return ""
		},
	)
	if res := Check(prog, Config{Mode: WMM}); !res.OK {
		t.Fatalf("%s (witness %v)", res.Violation, res.Witness)
	}
}

// TestAwaitCollapsing: a spin loop must not blow up the state space — the
// waiter is disabled until the flag is written, so the exploration stays
// tiny.
func TestAwaitCollapsing(t *testing.T) {
	var flag lockapi.Cell
	prog := twoThreads(
		func(p *Proc) {
			for p.Load(&flag, lockapi.Acquire) == 0 {
				p.Spin()
			}
		},
		func(p *Proc) {
			p.Store(&flag, 1, lockapi.Release)
		},
		nil,
	)
	res := Check(prog, Config{Mode: SC})
	if !res.OK {
		t.Fatal(res.Violation)
	}
	if res.States > 20 {
		t.Errorf("await collapsing ineffective: %d states for one flag wait", res.States)
	}
}

// TestDedupPrunes: two threads doing commutative independent work must
// explore far fewer executions than the factorial schedule count, thanks to
// state deduplication.
func TestDedupPrunes(t *testing.T) {
	var a, b lockapi.Cell
	prog := twoThreads(
		func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Add(&a, 1, lockapi.Relaxed)
			}
		},
		func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Add(&b, 1, lockapi.Relaxed)
			}
		},
		func(read func(*lockapi.Cell) uint64) string {
			if read(&a) != 6 || read(&b) != 6 {
				return "lost increments"
			}
			return ""
		},
	)
	res := Check(prog, Config{Mode: SC})
	if !res.OK {
		t.Fatal(res.Violation)
	}
	// Unpruned interleavings of 7+7 steps ≈ C(14,7) = 3432 executions
	// minimum; with dedup the state lattice is (8x8)-ish.
	if res.States > 200 {
		t.Errorf("dedup ineffective: %d states", res.States)
	}
}

// TestFenceFlushes: a SeqCst fence drains the buffer like an RMW.
func TestFenceFlushes(t *testing.T) {
	var x, flag lockapi.Cell
	prog := twoThreads(
		func(p *Proc) {
			p.Store(&x, 1, lockapi.Relaxed)
			p.Fence(lockapi.SeqCst)
			p.Store(&flag, 1, lockapi.Relaxed)
		},
		func(p *Proc) {
			if p.Load(&flag, lockapi.Acquire) == 1 {
				p.Assert(p.Load(&x, lockapi.Relaxed) == 1, "fence did not order stores")
			}
		},
		nil,
	)
	if res := Check(prog, Config{Mode: WMM}); !res.OK {
		t.Fatalf("%s (witness %v)", res.Violation, res.Witness)
	}
}

// TestBodyPanicReachesCaller runs programs whose thread body panics: once
// while the first instance primes its threads (thread 1, before its first
// operation, with thread 0 already suspended and thread 2 not yet started),
// once mid-schedule (thread 0 after three operations), and once only after
// a backtrack (thread 1 when it wins the race for a shared cell: a
// depth-first search first hands its live instance down the branch where
// thread 0 wins, so the panic fires in a replayed sibling). Each program runs
// under the exhaustive search (SC and WMM), the reduced one (WMM+POR) and a
// guided run that takes the last enabled choice. The panic value must reach
// the caller, and every thread of every instance must be gone afterwards.
func TestBodyPanicReachesCaller(t *testing.T) {
	adder := func(n int) func(p *Proc) {
		return func(p *Proc) {
			var c lockapi.Cell
			for i := 0; i < n; i++ {
				p.Add(&c, 1, lockapi.SeqCst)
			}
		}
	}
	var shared lockapi.Cell
	lastEnabled := func(_ int, enabled []Choice) Choice { return enabled[len(enabled)-1] }
	for _, tc := range []struct {
		name   string
		bodies []func(p *Proc)
		want   string
	}{
		{"priming", []func(p *Proc){adder(2), func(*Proc) { panic("boom while priming") }, adder(2)}, "boom while priming"},
		{"replay", []func(p *Proc){func(p *Proc) {
			adder(3)(p)
			panic("boom mid-replay")
		}, adder(2)}, "boom mid-replay"},
		{"after-backtrack", []func(p *Proc){
			func(p *Proc) { p.Add(&shared, 1, lockapi.SeqCst) },
			func(p *Proc) {
				if p.Add(&shared, 1, lockapi.SeqCst) == 1 {
					panic("boom after backtrack")
				}
			},
		}, "boom after backtrack"},
	} {
		for _, run := range []struct {
			name string
			run  func(Program)
		}{
			{"sc", func(prog Program) { Check(prog, Config{Mode: SC}) }},
			{"wmm", func(prog Program) { Check(prog, Config{Mode: WMM, POR: true}) }},
			{"wmm-exhaustive", func(prog Program) { Check(prog, Config{Mode: WMM}) }},
			{"guided", func(prog Program) { CheckGuided(prog, Config{Mode: SC}, lastEnabled) }},
		} {
			t.Run(tc.name+"/"+run.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				prog := Program{Name: tc.name, Make: func() []func(p *Proc) { return tc.bodies }}
				got := func() (r any) {
					defer func() { r = recover() }()
					run.run(prog)
					return nil
				}()
				if got != tc.want {
					t.Fatalf("search panicked with %v, want %q", got, tc.want)
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("%d goroutines after the search, %d before: checked threads leaked", n, before)
				}
			})
		}
	}
}
