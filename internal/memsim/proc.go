package memsim

import (
	"github.com/clof-go/clof/internal/coro"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/xrand"
)

// Proc is a virtual CPU: it implements lockapi.Proc by charging the
// machine's cost model for every operation and by parking spinning threads
// until the watched line changes (an MWAIT-like fast-forward that keeps the
// event count proportional to actual coherence traffic, not to spin
// iterations). Its cache contents are not kept here: each line records
// whether this CPU's copy is current (line.valid).
type Proc struct {
	m    *Machine
	cpu  int
	time int64
	// parked is set while the thread waits in a line's watcher list.
	parked bool

	// co is this thread's coroutine: Run resumes it, waitTurn yields it,
	// shutdown stops it.
	co coro.Thread

	// lastCell / lastLine short-circuit the machine's cell→line map for
	// the dominant access pattern, a thread re-touching the cell it just
	// touched (spin loops, data-cell walks).
	lastCell *lockapi.Cell
	lastLine *line

	// lastPollLine / spunSincePoll detect spin loops: a cached re-read of
	// the same unchanged line with a Spin() hint in between parks the
	// thread. The Spin() requirement distinguishes genuine spin loops from
	// straight-line code that merely reads a cell twice.
	lastPollLine  *line
	spunSincePoll bool

	// rmwLine / rmwStreak / storming detect RMW spin loops for the Armv8
	// LL/SC model: consecutive RMWs on one line mark this thread as a
	// "stormer" of that line until it performs any other memory operation.
	rmwLine   *line
	rmwStreak int
	storming  *line

	// justWoke marks the window right after a park wake-up: an out-of-order
	// core speculatively issues the loads that follow a spin loop while the
	// wake is still settling, so the first miss after a wake overlaps with
	// the notice latency and is charged at half cost. Cleared by the first
	// miss it discounts, or by local work / a new spin.
	justWoke bool

	rng *xrand.Rand

	// Stats, readable after Run returns.
	Ops      uint64
	Parks    uint64
	Spins    uint64
	LLSCPens uint64
	Preempts uint64
}

// CPU returns the CPU this virtual thread is pinned to.
func (p *Proc) CPU() int { return p.cpu }

// ID implements lockapi.Proc; it equals CPU().
func (p *Proc) ID() int { return p.cpu }

// Time returns the thread's local virtual time.
func (p *Proc) Time() int64 { return p.time }

// Expired reports whether the run horizon has passed for this thread;
// workload loops use it as their stop condition.
func (p *Proc) Expired() bool {
	return p.m.horizon > 0 && p.time >= p.m.horizon
}

// Rand returns this thread's private deterministic random stream.
func (p *Proc) Rand() *xrand.Rand { return p.rng }

// emit reports a trace event if tracing is enabled. The TraceEvent is only
// constructed behind the nil check, so the no-trace hot path pays one
// predictable branch and zero allocations.
func (p *Proc) emit(op string, c *lockapi.Cell, v uint64, cost int64) {
	if p.m.trace != nil {
		p.m.trace(TraceEvent{Time: p.time, CPU: p.cpu, Op: op, Cell: c, Value: v, Cost: cost})
	}
}

// advance charges cost (plus configured jitter) and grants the next event —
// inline when this thread may run ahead, through the scheduler otherwise.
func (p *Proc) advance(cost int64) {
	p.Ops++
	if p.m.jitter.d != 0 {
		// The value Int63n(JitterNS+1) draws, without its divide.
		cost += int64(p.m.jitter.mod(p.rng.Uint64()))
	}
	p.time += cost
	p.yieldAt()
}

// park registers this thread as a watcher of ln and blocks until a writer
// wakes it. The waker makes this CPU's copy current and sets the wake time,
// so on return the load can be satisfied as a local hit.
func (p *Proc) park(ln *line) {
	p.parked = true
	p.Parks++
	ln.watchers = append(ln.watchers, p)
	p.waitTurn()
	// The waker forwarded fresh data; do not immediately re-park on it.
	p.spunSincePoll = false
	p.justWoke = true
}

// lineOf resolves a cell to its coherence line through the per-thread
// one-entry cache, falling back to the machine's maps.
func (p *Proc) lineOf(c *lockapi.Cell) *line {
	if p.lastCell == c {
		return p.lastLine
	}
	ln := p.m.lineOf(c)
	p.lastCell, p.lastLine = c, ln
	return ln
}

// transferCost is the cost of pulling a line from its current owner.
func (p *Proc) transferCost(ln *line) int64 {
	switch {
	case ln.owner < 0:
		return p.m.lat.MemBase
	case ln.owner == p.cpu:
		return p.m.lat.Hit
	default:
		return p.m.lat.Transfer[p.m.shareLevel(p.cpu, ln.owner)]
	}
}

// invalCost is the extra cost a write pays to invalidate shared copies held
// by other CPUs (the shared→modified upgrade broadcast).
func (p *Proc) invalCost(ln *line) int64 {
	n := ln.sharers.count()
	if ln.sharers.has(p.cpu) {
		n--
	}
	if n <= 0 {
		return 0
	}
	if n > p.m.lat.SharerInvalCap {
		n = p.m.lat.SharerInvalCap
	}
	return int64(n) * p.m.lat.SharerInval
}

// llscCost models Armv8 load-exclusive/store-exclusive retry pressure: an
// RMW pays per thread *storming* the line with back-to-back RMWs, because
// the stormers keep stealing the exclusive reservation. This is what
// collapses Hemlock's CTR optimization on Armv8 (paper Fig. 3): the
// successor's fetch_add(0) spin loop livelocks the releaser's
// compare-and-swap. Alternating RMWs (ticket handovers, queue swaps) are
// not storms and pay nothing.
func (p *Proc) llscCost(ln *line) int64 {
	if p.m.lat.LLSCRetry == 0 {
		return 0
	}
	n := ln.stormers
	if p.storming == ln {
		n--
	}
	if n <= 0 {
		return 0
	}
	if n > p.m.lat.LLSCRetryCap {
		n = p.m.lat.LLSCRetryCap
	}
	p.LLSCPens++
	return int64(n) * p.m.lat.LLSCRetry
}

// noteRMW tracks consecutive RMWs for storm detection (Armv8 only).
func (p *Proc) noteRMW(ln *line) {
	if p.m.lat.LLSCRetry == 0 {
		return
	}
	if p.rmwLine != ln {
		p.endStorm()
		p.rmwLine = ln
		p.rmwStreak = 1
		return
	}
	p.rmwStreak++
	if p.rmwStreak >= 2 && p.storming == nil {
		p.storming = ln
		ln.stormers++
	}
}

// endStorm clears this thread's RMW-spin status, if any.
func (p *Proc) endStorm() {
	if p.storming != nil {
		p.storming.stormers--
		p.storming = nil
	}
	p.rmwLine = nil
	p.rmwStreak = 0
}

// wakeWatchers wakes every thread parked on ln, making each one's copy
// current (valid) and shared, so their pending load completes as a hit.
// Responses are staggered: the writer's cache serves one copy per transfer
// latency, so the k-th watcher notices the change later — the reload storm
// that makes globally spinning locks (Ticketlock) degrade with the waiter
// count (§2.1).
func (p *Proc) wakeWatchers(ln *line) {
	if len(ln.watchers) == 0 {
		return
	}
	acc := int64(0)
	for _, w := range ln.watchers {
		acc += p.m.lat.Transfer[p.m.shareLevel(p.cpu, w.cpu)]
		w.time = p.time + acc
		ln.valid.add(w.cpu)
		ln.sharers.add(w.cpu)
		w.parked = false
		p.m.q.Push(w.time, w)
	}
	ln.watchers = ln.watchers[:0]
}

// markWrite applies the coherence effects of a modification: take
// ownership, drop sharers, leave the writer's copy the only current one, and
// wake parked spinners.
func (p *Proc) markWrite(ln *line) {
	ln.owner = p.cpu
	ln.sharers.reset()
	ln.valid.reset()
	ln.valid.add(p.cpu)
	p.wakeWatchers(ln)
}

// Load implements lockapi.Proc.
func (p *Proc) Load(c *lockapi.Cell, _ lockapi.Order) uint64 {
	ln := p.lineOf(c)
	p.endStorm()
	for {
		if ln.valid.has(p.cpu) {
			// Cached copy still valid.
			if p.lastPollLine == ln && p.spunSincePoll {
				// Spin-looping on an unchanged line: park until a writer
				// changes it.
				p.park(ln)
				continue
			}
			p.lastPollLine = ln
			p.spunSincePoll = false
			p.advance(p.m.lat.Hit)
			v := c.Raw().Load()
			p.emit("load", c, v, p.m.lat.Hit)
			return v
		}
		// Miss: pull the line from its owner and join the sharers. The
		// cost is charged first; the read commits at completion time.
		cost := p.transferCost(ln)
		if p.justWoke {
			// Speculative post-wake load: overlaps the wake notice.
			cost /= 2
			p.justWoke = false
		}
		p.lastPollLine = ln
		p.spunSincePoll = false
		p.advance(cost)
		ln.valid.add(p.cpu)
		ln.sharers.add(p.cpu)
		v := c.Raw().Load()
		p.emit("load", c, v, cost)
		return v
	}
}

// Store implements lockapi.Proc.
func (p *Proc) Store(c *lockapi.Cell, v uint64, _ lockapi.Order) {
	ln := p.lineOf(c)
	p.endStorm()
	valid := ln.valid.has(p.cpu)
	cost := p.m.lat.Hit
	switch {
	case valid && ln.owner == p.cpu:
		// Already modified/exclusive here.
	case valid:
		// Valid shared copy: S→M upgrade, no data fetch.
		cost += p.m.lat.Upgrade
	default:
		cost = p.transferCost(ln)
	}
	cost += p.invalCost(ln)
	p.lastPollLine = nil
	// Charge first: the store (and the watcher wake-up it triggers) commits
	// at completion time, so expensive writes delay their observers.
	p.advance(cost)
	c.Raw().Store(v)
	p.markWrite(ln)
	p.emit("store", c, v, cost)
}

// rmwCost charges the common cost of a read-modify-write.
func (p *Proc) rmwCost(ln *line) int64 {
	valid := ln.valid.has(p.cpu)
	cost := p.m.lat.RMWBase
	switch {
	case valid && ln.owner == p.cpu:
		cost += p.m.lat.Hit
	case valid:
		// Valid shared copy: S→M upgrade, no data fetch.
		cost += p.m.lat.Hit + p.m.lat.Upgrade
	default:
		cost += p.transferCost(ln)
	}
	cost += p.invalCost(ln)
	cost += p.llscCost(ln)
	return cost
}

// Add implements lockapi.Proc (fetch-and-add returning the new value).
//
// Add with delta 0 is the CTR "load" idiom. On x86 an exclusive-held line
// being re-read by its owner costs nothing externally, so a repeated
// Add(0) by the owner parks like a spin load (keeping the line exclusive —
// that absence of sharers is the CTR benefit). On Armv8 every Add is a real
// LL/SC pair, so the loop stays live and feeds the retry storm.
func (p *Proc) Add(c *lockapi.Cell, delta uint64, _ lockapi.Order) uint64 {
	ln := p.lineOf(c)
	for {
		if delta == 0 && p.m.lat.LLSCRetry == 0 &&
			ln.valid.has(p.cpu) && ln.owner == p.cpu {
			// CTR spin-read of a line we already own exclusively: on x86
			// this costs nothing externally. Poll once, then park on the
			// Spin()-marked repeat, like a plain load spin.
			if p.lastPollLine == ln && p.spunSincePoll {
				p.park(ln)
				continue
			}
			p.lastPollLine = ln
			p.spunSincePoll = false
			p.advance(p.m.lat.Hit + p.m.lat.RMWBase)
			nv := c.Raw().Add(delta)
			p.emit("add", c, nv, p.m.lat.Hit+p.m.lat.RMWBase)
			return nv
		}
		cost := p.rmwCost(ln)
		p.noteRMW(ln)
		p.lastPollLine = nil
		p.advance(cost)
		nv := c.Raw().Add(delta)
		if delta != 0 {
			p.markWrite(ln)
		} else {
			// fetch_add(0): takes the line exclusive but the value is
			// unchanged, so other CPUs' copies stay current and watchers
			// must not wake; ownership and sharers move as for a write.
			ln.owner = p.cpu
			ln.sharers.reset()
			ln.valid.add(p.cpu)
		}
		p.emit("add", c, nv, cost)
		return nv
	}
}

// Swap implements lockapi.Proc (returns the old value).
func (p *Proc) Swap(c *lockapi.Cell, v uint64, _ lockapi.Order) uint64 {
	ln := p.lineOf(c)
	cost := p.rmwCost(ln)
	p.noteRMW(ln)
	p.lastPollLine = nil
	p.advance(cost)
	old := c.Raw().Swap(v)
	p.markWrite(ln)
	p.emit("swap", c, v, cost)
	return old
}

// CAS implements lockapi.Proc. A failed CAS still pulls the line and pays
// the RMW cost (the LL happened) but does not modify it: the caller's copy
// becomes current without joining the sharers.
func (p *Proc) CAS(c *lockapi.Cell, old, new uint64, _ lockapi.Order) bool {
	ln := p.lineOf(c)
	cost := p.rmwCost(ln)
	p.noteRMW(ln)
	p.lastPollLine = nil
	p.advance(cost)
	// The compare happens at completion time: an RMW that committed while
	// this one was in flight wins, exactly as on real hardware.
	ok := c.Raw().CompareAndSwap(old, new)
	if ok {
		p.markWrite(ln)
		p.emit("cas", c, new, cost)
	} else {
		ln.valid.add(p.cpu)
		p.emit("cas!", c, old, cost)
	}
	return ok
}

// Fence implements lockapi.Proc. The simulator executes operations in
// program order (it models coherence cost, not reordering — internal/mcheck
// covers reordering), so a fence only costs time.
func (p *Proc) Fence(_ lockapi.Order) {
	p.advance(p.m.lat.RMWBase)
}

// Spin implements lockapi.Proc: one spin-loop iteration of local delay.
// It also marks the thread as spinning, which arms the park heuristic for
// the next cached re-read.
func (p *Proc) Spin() {
	p.Spins++
	p.spunSincePoll = true
	p.advance(p.m.lat.SpinGap)
}

// Preempt suspends this virtual CPU for d nanoseconds of *wall-clock*
// descheduling, as when the OS takes the core away: virtual time advances
// unscaled (CPUSpeed does not apply — a descheduled core computes nothing),
// and this CPU leaves every line's valid set, so it repopulates its working
// set through misses on resume — the realistic handover penalty of
// lock-holder preemption. The rest of the coherence state (owners, sharers,
// parked watchers) is deliberately untouched: other CPUs still believe this
// CPU may hold lines, which is the conservative direction for writers'
// invalidation costs. Fault plans (internal/faultinject, driven by internal/workload in
// the chaos and collapse experiments) call this mid-critical-section to
// model preempted lock holders, and outside it to model stalled cores.
func (p *Proc) Preempt(d int64) {
	if d < 0 {
		panic("memsim: negative Preempt duration")
	}
	p.Preempts++
	for _, ln := range p.m.lines {
		ln.valid.del(p.cpu)
	}
	p.endStorm()
	p.lastPollLine = nil
	p.justWoke = false
	p.time += d
	p.emit("preempt", nil, 0, d)
	p.yieldAt()
}

// Work advances this thread's local time by d nanoseconds of private
// computation (no coherence traffic), scaled by this CPU's speed factor
// (big.LITTLE support). Workloads use it for critical- and non-critical-
// section "think time".
func (p *Proc) Work(d int64) {
	if d < 0 {
		panic("memsim: negative Work duration")
	}
	if p.m.speeds != nil {
		d = int64(float64(d) * p.m.speeds[p.cpu])
	}
	p.lastPollLine = nil
	p.justWoke = false
	p.endStorm()
	p.advance(d)
}

var _ lockapi.Proc = (*Proc)(nil)
