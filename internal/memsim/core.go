// The execution core: virtual CPUs are coroutines (internal/coro), and
// whichever of them gives up the turn grants the next event (dispatch).

package memsim

import (
	"fmt"
	"sort"
)

// Spawn creates a virtual CPU thread pinned to the given CPU and running fn.
// Each CPU takes at most one thread, and all Spawn calls must precede Run.
// fn runs entirely in virtual time; it must perform all shared-memory
// accesses through the provided Proc.
func (m *Machine) Spawn(cpu int, fn func(p *Proc)) *Proc {
	if m.started {
		panic("memsim: Spawn after Run")
	}
	if cpu < 0 || cpu >= m.topo.NumCPUs() {
		panic(fmt.Sprintf("memsim: cpu %d out of range [0,%d)", cpu, m.topo.NumCPUs()))
	}
	if m.spawned.has(cpu) {
		panic(fmt.Sprintf("memsim: cpu %d already has a thread", cpu))
	}
	m.spawned.add(cpu)
	p := &Proc{
		m:   m,
		cpu: cpu,
		rng: m.rng.Split(),
	}
	p.co.Init(func() {
		stackReserve()
		fn(p)
		// A finished thread has no next event, so dispatch returns only to
		// hand the turn down the stack, which returning from the body does.
		m.dispatch(p)
	})
	m.threads = append(m.threads, p)
	m.q.Push(0, p)
	return p
}

// Run executes the simulation until the event queue drains or virtual time
// exceeds horizon (horizon 0 means "no horizon": run to completion). It
// returns statistics; Deadlock is set if every remaining thread is parked
// with no pending event before the horizon.
//
// Run is the bottom of the dispatch stack: it grants the first event and
// resumes its thread, and from then on each thread that gives up the turn
// grants the next one itself (dispatch). Run's Resume returns only once the
// run has ended and every nested Resume above it has returned. A workload
// panic propagates out of Run after every other thread has been unwound.
func (m *Machine) Run(horizon int64) Result {
	if m.started {
		panic("memsim: Run called twice")
	}
	m.started = true
	m.horizon = horizon
	defer m.shutdown()

	m.dispatch(nil)
	res := Result{Now: m.now, Events: m.events, Switches: m.switches}
	for _, p := range m.threads {
		if p.parked {
			res.ParkedCPUs = append(res.ParkedCPUs, p.cpu)
		}
	}
	sort.Ints(res.ParkedCPUs)
	if !m.horizonHit && len(res.ParkedCPUs) > 0 {
		res.Deadlock = true
	}
	return res
}

// grant pops the earliest (time, seq) event and grants it (take). It
// returns nil once the run is over: the queue has drained, or the earliest
// event lies past the horizon.
func (m *Machine) grant() *Proc {
	t, p, ok := m.q.Pop()
	if !ok {
		m.ended = true
		return nil
	}
	return m.take(t, p)
}

// take grants p the event just popped at time t: it advances the machine
// clock and the event count and returns p. An event past the horizon ends
// the run instead, with the clock stopped at the horizon, and take returns
// nil.
func (m *Machine) take(t int64, p *Proc) *Proc {
	if m.horizon > 0 && t > m.horizon {
		m.now = m.horizon
		m.horizonHit = true
		m.ended = true
		return nil
	}
	m.now = t
	m.events++
	return p
}

// dispatch passes the turn on from self, a thread that must wait (nil for
// Run), and reports whether the turn has come back to self.
//
// The running thread and the threads beneath it, each suspended in its own
// Resume of the one above, form the dispatch stack (onStack), with Run at
// the bottom. dispatch grants the next event, or takes the one already
// pending. A thread off the stack it resumes directly, nested, and grants
// again once that Resume returns. A thread on the stack is self or beneath
// it: dispatch leaves the grant pending and returns false, so its caller
// yields (or, its body done, returns) and the stack unwinds down to the
// granted thread, whose own dispatch then takes the turn. Once the run is
// over every frame returns false, and the stack unwinds down to Run.
//
// A handoff to a thread off the stack costs one switch, and each yield
// hands the turn one frame down, where a central scheduler loop would pay
// two switches for every grant: out of the waiting thread, then into the
// next. Grants stay in the queue's (time, seq) pop order, made at the
// instant the previous thread gives up the turn, so the schedule is the one
// a central loop would produce.
func (m *Machine) dispatch(self *Proc) bool {
	for {
		p := m.pending
		if p == nil {
			if m.ended {
				return false
			}
			if p = m.grant(); p == nil {
				return false
			}
			m.pending = p
		}
		switch {
		case p == self:
			m.pending = nil
			return true
		case p.onStack:
			return false
		}
		m.pending = nil
		p.onStack = true
		m.switches += 2 // into p, and back when p yields or returns
		p.co.Resume()
		p.onStack = false
	}
}

// shutdown terminates all live virtual CPUs: each suspended in waitTurn is
// unwound from there. Finished threads and threads that never ran stop
// without executing anything. Then, once no thread can touch a cell, it
// empties the slot of every line the run created, so no coherence state
// outlives the run and the next run on the same cells starts cold.
func (m *Machine) shutdown() {
	for _, p := range m.threads {
		p.co.Stop()
	}
	for _, ln := range m.lines {
		*ln.slot = nil
	}
}

// stackReserve pre-grows the calling goroutine's stack in a single step.
// Virtual CPU coroutines are numerous and short-lived, and their first lock
// acquisition otherwise pays a cascade of incremental 2K→4K→8K→16K stack
// copies (runtime.copystack shows up prominently in profiles of quick
// sweeps); one oversized dead frame reserves the depth up front.
//
//go:noinline
func stackReserve() byte {
	var pad [16 << 10]byte
	return pad[len(pad)-1]
}

// waitTurn gives up the turn and returns once this thread is granted its
// next event. It dispatches the events granted in between; only when the
// grant goes to a thread further down the dispatch stack, or the run ends,
// does it yield its coroutine, and then the grant of its next event
// resumes it.
func (p *Proc) waitTurn() {
	if !p.m.dispatch(p) {
		p.co.Yield()
	}
}

// yieldAt queues this thread's next event at its local time, grants the
// earliest event and returns once this thread's turn comes. The push and the
// pop are one PushPop, and the grant is left pending for waitTurn to hand
// over.
//
// It is the slow path of advance's run-ahead check, and Preempt's only
// route: when this thread is strictly the earliest event inside the
// horizon, PushPop returns it and the turn stays here, the same grant the
// fast path makes inline.
func (p *Proc) yieldAt() {
	m := p.m
	m.pending = m.take(m.q.PushPop(p.time, p))
	p.waitTurn()
}
