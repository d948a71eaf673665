package mcheck

import (
	"fmt"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/cr"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
)

// LockProgram builds the canonical verification program for a lock: each of
// `threads` threads performs `iters` critical sections. Inside the critical
// section the program checks mutual exclusion directly and additionally
// increments a shared counter with a non-atomic load/store pair using
// Relaxed accesses — under the WMM mode this is the data whose visibility
// depends on the lock's release barrier, so a lock with a wrongly relaxed
// release fails the final-count check even when raw mutual exclusion holds.
//
// The mkLock factory is invoked once per program instance, so every replay
// starts from a pristine lock.
func LockProgram(name string, threads, iters int, mkLock func() lockapi.Lock) Program {
	counter := struct{ c *lockapi.Cell }{}
	return Program{
		Name: name,
		Make: func() []func(p *Proc) {
			l := mkLock()
			cnt := &lockapi.Cell{}
			counter.c = cnt
			ctxs := make([]lockapi.Ctx, threads)
			for i := range ctxs {
				ctxs[i] = l.NewCtx()
			}
			bodies := make([]func(p *Proc), threads)
			for i := 0; i < threads; i++ {
				i := i
				bodies[i] = func(p *Proc) {
					for it := 0; it < iters; it++ {
						p.BeginWait()
						l.Acquire(p, ctxs[i])
						p.EndWait()
						p.EnterCS()
						v := p.Load(cnt, lockapi.Relaxed)
						p.Store(cnt, v+1, lockapi.Relaxed)
						p.ExitCS()
						l.Release(p, ctxs[i])
					}
				}
			}
			return bodies
		},
		Final: func(read func(c *lockapi.Cell) uint64) string {
			want := uint64(threads * iters)
			if got := read(counter.c); got != want {
				return fmt.Sprintf("counter = %d, want %d (lost update: release barrier too weak?)", got, want)
			}
			return ""
		},
	}
}

// VerifyMachine is the smallest machine exhibiting two hierarchy levels
// with two leaf cohorts: 2 cache groups of 2 CPUs. The paper's induction
// step needs exactly this shape (one cohort with two threads, a second
// cohort with one).
func VerifyMachine() *topo.Machine {
	return &topo.Machine{
		Name:           "verify4",
		Arch:           topo.ArmV8,
		Packages:       1,
		NUMAPerPackage: 1,
		GroupsPerNUMA:  2,
		CoresPerGroup:  2,
		ThreadsPerCore: 1,
	}
}

// InductionProgram is the paper's §4.2 induction step: a 2-level CLoF lock
// over abstract fair locks (verified Ticketlocks), 3 threads — two in one
// cache-group cohort, one in the other — each acquiring once. Checked
// properties: mutual exclusion, deadlock freedom, spinloop termination, and
// the data invariant. `buggy` builds the §4.1.3 inverted-release-order
// variant, whose exploration must find a violation.
//
// Thread→CPU: threads 0,1 share cohort 0 (CPUs 0,1); thread 2 is alone in
// cohort 1 (CPU 2). The checker Proc's ID() is the thread id, which is also
// a valid CPU id on VerifyMachine by construction.
func InductionProgram(iters int, buggy bool, low, high string) Program {
	h := topo.MustHierarchy(VerifyMachine(), topo.CacheGroup, topo.System)
	comp := clof.Composition{locks.MustType(low), locks.MustType(high)}
	name := fmt.Sprintf("clof-induction-%s-%s", low, high)
	opts := []clof.Option{clof.WithThreshold(2)}
	if buggy {
		name += "-release-order-bug"
		opts = append(opts, clof.WithReleaseOrderBug())
	}
	return LockProgram(name, 3, iters, func() lockapi.Lock { return clof.Must(h, comp, opts...) })
}

// FastPathProgram verifies the §6 TAS fast-path extension: the 2-level
// CLoF lock with stealing enabled, 3 threads on InductionProgram's
// thread→CPU map. Mutual exclusion, deadlock freedom and spinloop
// termination must hold; strict fairness is forfeited by design and not
// checked here.
func FastPathProgram(iters int) Program {
	h := topo.MustHierarchy(VerifyMachine(), topo.CacheGroup, topo.System)
	comp := clof.Composition{locks.MustType("tkt"), locks.MustType("tkt")}
	return LockProgram("clof-fastpath-tkt-tkt", 3, iters, func() lockapi.Lock {
		return clof.Must(h, comp, clof.WithThreshold(2), clof.WithTASFastPath())
	})
}

// CRProgram verifies the concurrency-restriction combinator (internal/cr):
// `threads` threads each acquire `iters` times through cr.Restrict over a
// verified Ticketlock with Target 1 and PassLimit 1, the tightest admission
// control that still must recirculate every waiter. Checked properties:
// mutual exclusion, deadlock freedom (a passive waiter parked on its wake
// slot must always eventually be granted), the release-barrier data
// invariant, and — via CheckLiveness — the bounded-bypass guarantee for a
// lone remote waiter.
//
// Thread→cohort mapping: cr queues waiters per NUMA node, so the program
// runs on one package of two NUMA nodes. With threads <= 2 each node has
// one CPU (one thread per cohort; exhaustible). With threads >= 3 each node
// has two CPUs — VerifyMachine's induction shape with NUMA nodes in place
// of cache groups: threads 0 and 1 share cohort 0 and thread 2 is alone in
// cohort 1. The 3-thread state space exceeds the practical exhaustion
// budget — a probe still truncates past 1.5M states — so 3-thread safety
// checks run under an explicit MaxStates bound (see TestCRVerified).
//
// broken selects the BreakRecirculation variant: refills always favor the
// releaser's own cohort and heads barge without designation, so the threads
// sharing cohort 0 can recycle the single active slot between themselves
// forever while the remote head waits parked. Exhaustive search cannot
// reach that witness within budget (the victim's wait announcement must
// precede the bypassers' entire runs — the last deviation depth-first
// backtracking visits), so the starvation is demonstrated with CheckGuided
// under a RoundRobin schedule: a fair scheduler alone starves the remote
// cohort at every bypass bound, while the intact rotation admits it on the
// first PassLimit rotation (see TestCRBrokenRecirculationStarves).
func CRProgram(threads, iters int, broken bool) Program {
	// One CPU per node keeps the 2-thread search tractable: one wake slot
	// per cohort instead of two.
	perNode := 1
	if threads > 2 {
		perNode = 2
	}
	mach := &topo.Machine{
		Name:           fmt.Sprintf("cr-verify%d", 2*perNode),
		Arch:           topo.ArmV8,
		Packages:       1,
		NUMAPerPackage: 2,
		GroupsPerNUMA:  1,
		CoresPerGroup:  perNode,
		ThreadsPerCore: 1,
	}
	name := "cr-tkt"
	if broken {
		name += "-broken-recirculation"
	}
	return LockProgram(name, threads, iters, func() lockapi.Lock {
		return cr.Restrict(mach, locks.NewTicket(), cr.Opts{
			Target:             1,
			PassLimit:          1,
			BackoffCap:         1,
			BreakRecirculation: broken,
		})
	})
}

// splitAddProc issues every fetch-and-add as a Relaxed load plus a store
// at order. That is a correct fetch-and-add only for a cell no other thread
// writes concurrently.
type splitAddProc struct {
	lockapi.Proc
	order lockapi.Order
}

func (p splitAddProc) Add(c *lockapi.Cell, delta uint64, _ lockapi.Order) uint64 {
	v := p.Load(c, lockapi.Relaxed) + delta
	p.Store(c, v, p.order)
	return v
}

// splitReleaseTicket is the shipped Ticketlock with its Release run on a
// splitAddProc. Only the holder writes grant (see locks.Ticket.Release), so
// the split keeps the release atomic and moves only the grant store's order.
type splitReleaseTicket struct {
	*locks.Ticket
	order lockapi.Order
}

func (l splitReleaseTicket) Release(p lockapi.Proc, c lockapi.Ctx) {
	l.Ticket.Release(splitAddProc{p, l.order}, c)
}

// ticketProgram is LockProgram over a splitReleaseTicket.
func ticketProgram(name string, threads, iters int, order lockapi.Order) Program {
	return LockProgram(name, threads, iters, func() lockapi.Lock {
		return splitReleaseTicket{locks.NewTicket(), order}
	})
}

// BrokenTicketProgram exhibits the missing-release-barrier bug: the grant
// store is Relaxed, so under WMM the unlock can become visible before the
// critical section's buffered data stores and updates are lost — the class
// of bug the paper's A4 aspect is about. Under SC it is indistinguishable
// from the correct lock.
func BrokenTicketProgram(threads, iters int) Program {
	return ticketProgram("ticket-relaxed-release", threads, iters, lockapi.Relaxed)
}

// FixedTicketProgram is BrokenTicketProgram with the barrier restored: the
// grant store is a store-release. Having both verifies the WMM mode can
// tell them apart.
func FixedTicketProgram(threads, iters int) Program {
	return ticketProgram("ticket-release-store", threads, iters, lockapi.Release)
}

// StoreProgram model-checks the store's optimistic read path itself, not a
// copy of it (DESIGN.md S33): a store.Router of `shards` shards, each
// guarded by its own mkLock() — a seq: lock, so reads take the
// lockapi.SeqReader path — and holding two data cells. Thread 0 writes both
// cells of every shard once, Relaxed, through Session.ExclusiveAt. Each of
// `readers` readers visits shards 0..shards-1 in order with one
// Session.OptimisticAt apiece, as KVSession.Scan does, buffers the two
// cells it reads and asserts once the call returns that they agree: every
// snapshot the shipped retry loop lets out must be consistent.
//
// The interesting mode is WMM with Config.StaleLoads: the reader bug class
// validation exists to prevent is a *load* observing the past, invisible to
// the store-ordering models. A shard lock whose ReadValidate runs on a Proc
// with a no-op Fence seeds it (the classic missing Acquire fence; see
// seqlock_test.go); under StaleLoads the checker must find the torn snapshot
// a stale version re-read certifies, and with the fence intact nothing.
//
// With one write per shard a read fails validation at most once (the
// retry's Acquire ReadSeq waits the writer out), so no read reaches the
// SharedAt fallback, which takes occAttempts (8) failures: the fallback is
// not covered (DESIGN.md S33).
func StoreProgram(name string, readers, shards int, mkLock func() lockapi.Lock) Program {
	return Program{
		Name: name,
		Make: func() []func(p *Proc) {
			router := store.NewRouter(store.NewPartitioner(shards, 0),
				func(int) lockapi.Lock { return mkLock() },
				func(int) *[2]lockapi.Cell { return new([2]lockapi.Cell) })
			w := router.NewSession()
			bodies := []func(p *Proc){func(p *Proc) {
				for i := 0; i < shards; i++ {
					w.ExclusiveAt(p, i, func(_ int, d *[2]lockapi.Cell) {
						p.Store(&d[0], 1, lockapi.Relaxed)
						p.Store(&d[1], 1, lockapi.Relaxed)
					})
				}
			}}
			for r := 0; r < readers; r++ {
				s := router.NewSession()
				bodies = append(bodies, func(p *Proc) {
					for i := 0; i < shards; i++ {
						var v0, v1 uint64
						s.OptimisticAt(p, i, func(_ int, d *[2]lockapi.Cell) {
							v0 = p.Load(&d[0], lockapi.Relaxed)
							v1 = p.Load(&d[1], lockapi.Relaxed)
						})
						p.Assert(v0 == v1, "torn snapshot escaped validation")
					}
				})
			}
			return bodies
		},
	}
}
