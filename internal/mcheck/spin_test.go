package mcheck

import (
	"fmt"
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/lockapi"
)

// noSpinProc is a checker Proc whose Spin does nothing: a poll loop run
// through it never announces an await, so its thread can load forever.
type noSpinProc struct{ *Proc }

func (noSpinProc) Spin() {}

// noSpinLock runs the wrapped lock's Acquire and Release on a noSpinProc:
// every Spin in the lock's code, its backoff included, is deleted.
type noSpinLock struct{ lockapi.Lock }

func (l noSpinLock) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	l.Lock.Acquire(noSpinProc{p.(*Proc)}, c)
}

func (l noSpinLock) Release(p lockapi.Proc, c lockapi.Ctx) {
	l.Lock.Release(noSpinProc{p.(*Proc)}, c)
}

// sharedProgram runs one reader through l's shared path and one writer
// through its exclusive path, each once: the program that reaches an
// RWLocker's reader wait and its writer's reader drain, which LockProgram's
// writers never do. spin=false hands both a noSpinProc.
func sharedProgram(name string, mk func() lockapi.Lock, spin bool) Program {
	return Program{
		Name: name,
		Make: func() []func(p *Proc) {
			l := mk().(lockapi.RWLocker)
			rc, wc := l.NewCtx(), l.NewCtx()
			proc := func(p *Proc) lockapi.Proc {
				if spin {
					return p
				}
				return noSpinProc{p}
			}
			return []func(p *Proc){
				func(p *Proc) {
					l.AcquireShared(proc(p), rc)
					p.EnterCS()
					p.ExitCS()
					l.ReleaseShared(proc(p), rc)
				},
				func(p *Proc) {
					l.Acquire(proc(p), wc)
					p.EnterCS()
					p.ExitCS()
					l.Release(proc(p), wc)
				},
			}
		},
	}
}

// TestPollLoopsMustSpin is the poll-loop half of the spin discipline
// documented on lockapi.Proc.Spin: every catalog lock waits for another
// thread in a loop that backs off through Spin, which the checker collapses
// into an await. With Spin deleted the waiting thread polls forever, and
// the search must report potential non-termination for every entry, and
// for the shared path of every entry that has one. The intact lock passes
// at the same Config, so the depth bound is not what fails. The bound
// stays small because the mutants' search runs until it.
func TestPollLoopsMustSpin(t *testing.T) {
	mach := VerifyMachine()
	cfg := Config{Mode: SC, MaxDepth: 300, POR: true}
	pair := func(t *testing.T, intact, mutant Program) {
		t.Helper()
		if res := Check(intact, cfg); !res.OK {
			t.Fatalf("intact lock: %s (truncated=%v)", res.Violation, res.Truncated)
		}
		const want = "depth limit exceeded (potential non-termination)"
		if res := Check(mutant, cfg); res.OK || res.Violation != want {
			t.Fatalf("Spin deleted: got ok=%v %q, want %q", res.OK, res.Violation, want)
		}
	}
	for _, e := range catalog.Locks() {
		e := e
		mk := func() lockapi.Lock { return e.New(mach) }
		// Only a third thread reaches shfllock's queue wait: the first
		// waiter becomes queue head directly. qspin's MCS-queue wait needs
		// one too; TestBaseStepSC checks qspin at three threads.
		threads := 2
		if e.Name == "shfllock" {
			threads = 3
		}
		t.Run(e.Name, func(t *testing.T) {
			pair(t, LockProgram(e.Name, threads, 1, mk),
				LockProgram(e.Name+"/no-spin", threads, 1, func() lockapi.Lock { return noSpinLock{mk()} }))
		})
		if _, ok := mk().(lockapi.RWLocker); ok {
			t.Run(e.Name+"/shared", func(t *testing.T) {
				pair(t, sharedProgram(e.Name, mk, true), sharedProgram(e.Name+"/no-spin", mk, false))
			})
		}
	}
}

// casRetryProgram has two threads increment one cell once each with a
// load/CAS retry loop. spin adds a Spin after each failed CAS: the mistake
// lockapi.Proc.Spin documents, since the failed CAS proves the cell has
// just changed and no other thread need ever change it again.
func casRetryProgram(spin bool) Program {
	var cell *lockapi.Cell
	return Program{
		Name: fmt.Sprintf("cas-retry/spin=%v", spin),
		Make: func() []func(p *Proc) {
			c := &lockapi.Cell{}
			cell = c
			inc := func(p *Proc) {
				v := p.Load(c, lockapi.Relaxed)
				for !p.CAS(c, v, v+1, lockapi.AcqRel) {
					if spin {
						p.Spin()
					}
					v = p.Load(c, lockapi.Relaxed)
				}
			}
			return []func(p *Proc){inc, inc}
		},
		Final: func(read func(c *lockapi.Cell) uint64) string {
			if got := read(cell); got != 2 {
				return fmt.Sprintf("cell = %d, want 2", got)
			}
			return ""
		},
	}
}

// TestCASRetryMustNotSpin is the other half of the spin discipline: a
// CAS-retry loop that Spins parks the losing thread on a cell whose last
// writer has already finished, and the checker reports the deadlock, with
// and without POR. The Spin-free twin increments the cell twice.
func TestCASRetryMustNotSpin(t *testing.T) {
	for _, por := range []bool{false, true} {
		cfg := Config{Mode: SC, POR: por}
		res := Check(casRetryProgram(true), cfg)
		if want := "deadlock (threads blocked with no enabled transition)"; res.OK || res.Violation != want {
			t.Errorf("POR=%v, Spin in the retry loop: got ok=%v %q, want %q", por, res.OK, res.Violation, want)
		}
		if res := Check(casRetryProgram(false), cfg); !res.OK {
			t.Errorf("POR=%v, Spin-free retry loop: %s (witness %v)", por, res.Violation, res.Witness)
		}
	}
}
