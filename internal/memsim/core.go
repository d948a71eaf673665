// The execution core: virtual CPUs are coroutines (internal/coro), and Run
// is the only scheduler.

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
// Each pass of the loop grants the earliest (time, seq) event by resuming
// its thread's coroutine, which runs until it yields the turn back: to wait
// behind an earlier event, to park, or because its workload returned.
// Operations that keep the thread globally earliest never come back here
// (Proc.yieldAt). A workload panic propagates out of Run after every other
// thread has been unwound.
func (m *Machine) Run(horizon int64) Result {
	if m.started {
		panic("memsim: Run called twice")
	}
	m.started = true
	m.horizon = horizon
	defer m.shutdown()

	horizonHit := false
	for {
		t, p, ok := m.q.Pop()
		if !ok {
			break
		}
		if horizon > 0 && t > horizon {
			m.now = horizon
			horizonHit = true
			break
		}
		m.now = t
		m.events++
		p.co.Resume()
	}

	res := Result{Now: m.now, Events: m.events}
	for _, p := range m.threads {
		if p.parked {
			res.ParkedCPUs = append(res.ParkedCPUs, p.cpu)
		}
	}
	sort.Ints(res.ParkedCPUs)
	if !horizonHit && len(res.ParkedCPUs) > 0 {
		res.Deadlock = true
	}
	return res
}

// shutdown terminates all live virtual CPUs: each suspended in waitTurn is
// unwound from there. Finished threads and threads that never ran stop
// without executing anything.
func (m *Machine) shutdown() {
	for _, p := range m.threads {
		p.co.Stop()
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

// waitTurn suspends this thread's coroutine until Run grants it its next
// event.
func (p *Proc) waitTurn() { p.co.Yield() }

// yieldAt schedules this thread's next event at its local time and returns
// once the event is granted.
//
// This is the execution core's run-ahead fast path: while this thread
// remains strictly the globally earliest event — the exact condition under
// which Run's next pop would re-grant it anyway (a tie loses to the queued
// entry, whose earlier push holds the smaller sequence number) — and the
// horizon has not passed, the grant happens inline: advance the machine
// clock and event count and keep executing, paying no coroutine switch.
// Otherwise queue the event and yield to Run. Both routes grant the same
// (time, seq) order.
func (p *Proc) yieldAt() {
	m := p.m
	if t, ok := m.q.MinTime(); (!ok || p.time < t) && (m.horizon <= 0 || p.time <= m.horizon) {
		m.now = p.time
		m.events++
		return
	}
	m.q.Push(p.time, p)
	p.waitTurn()
}
