package mcheck

import (
	"slices"

	"github.com/clof-go/clof/internal/coro"
	"github.com/clof-go/clof/internal/lockapi"
)

// mcell is the checker's committed-memory state of one cell.
type mcell struct {
	value uint64
	// version counts committed writes (awaits watch it).
	version uint64
	// wTag identifies the last committing write: mix(tid+1, opIdx). Zero
	// means never written. Used for symmetry-free state fingerprints.
	wTag uint64
	// idx is the cell's registration order (first touch), a deterministic
	// identity for fingerprinting per-thread stale views (StaleLoads) and
	// for cross-replay footprint comparison (POR). Cells are registered when
	// an operation on them is *announced*, so every cell named by a pending
	// or executed transition of a schedule prefix was registered within that
	// prefix — registration order is a function of the prefix, which makes
	// idx a consistent identity across replays sharing the prefix.
	idx uint64
}

// bufEntry is one pending store in a thread's store buffer.
type bufEntry struct {
	cell  *mcell
	value uint64
	order lockapi.Order
	// opIdx is the issuing operation's thread-local index (fingerprints, and
	// the stable identity of this entry's flush pseudo-transition).
	opIdx uint64
	// issueIdx is the schedule index of the issuing store's transition; the
	// flush can causally depend on nothing later (POR happens-before anchor).
	issueIdx int
}

// Pending-transition kinds: what a suspended thread does when next granted.
const (
	pkOp    int = iota // a shared-memory operation (load/store/rmw/fence)
	pkYield            // a plain yield (unarmed Spin)
	pkAwait            // an armed Spin: disabled until the watched cell changes
	pkStale            // a stale-read fork (Config.StaleLoads)
)

// fpCell is one cell of a transition footprint. Cells are identified by
// registration order (mcell.idx), not pointer, so footprints recorded in one
// replay compare correctly against footprints from a later replay of the
// same prefix.
type fpCell struct {
	idx   uint64
	write bool
}

// footprint describes what a transition touches: the issuing thread, the
// cells it may read or write, whether it applies monitor effects
// (critical-section or fairness bookkeeping), and whether it is a
// store-buffer flush pseudo-transition. Pending footprints are conservative
// over-approximations — a CAS is announced as a write whether or not it
// will succeed — which costs reduction, never soundness.
type footprint struct {
	tid     int
	mon     bool
	isFlush bool
	cells   []fpCell
}

// pending is a thread's announced next transition: kind, footprint, and (for
// awaits) the watched cell and version.
type pending struct {
	kind     int
	foot     footprint
	awaitOn  *mcell
	awaitVer uint64
}

// Monitor-call kinds (buffered between operations; see Proc.monQ).
const (
	monEnterCS int = iota
	monExitCS
	monBeginWait
	monEndWait
	monAssert
)

// monEntry is one buffered monitor call.
type monEntry struct {
	kind int
	cond bool
	msg  string
}

// Proc is the model checker's processor handle. In addition to lockapi.Proc
// it offers the critical-section and fairness hooks the verification
// programs use.
//
// Execution protocol: each thread is a coroutine (internal/coro). Every
// operation *announces* itself (kind + footprint) and suspends before
// applying any effect; the grant resumes it, applies buffered monitor calls
// and the operation's effects, and runs the body to its next announce.
// Monitor calls made between two operations are therefore applied exactly
// when the later operation executes — the same instant they took effect
// when operations suspended after their effects — so the protocol change is
// invisible to verdicts while giving the explorer the footprint of every
// pending transition (the enabler for partial-order reduction).
type Proc struct {
	ex  *exec
	tid int
	// co is this thread's coroutine: apply resumes it, announce yields it,
	// shutdown stops it.
	co coro.Thread

	done bool
	pend pending
	monQ []monEntry

	// footCells is the reusable backing for announced footprints; execFoot
	// is the footprint of the transition being (or last) executed, with the
	// mon bit set by drained monitor calls. execFoot keeps its own backing
	// (execCells): the thread announces its next operation — overwriting
	// footCells — before the scheduler reads the executed footprint.
	footCells []fpCell
	execCells []fpCell
	execFoot  footprint

	buffer []bufEntry

	// lastCell is the most recently accessed cell: the await target of the
	// next Spin. lastVer is the cell's version as observed by that access,
	// so a write landing between the poll and the Spin still counts as a
	// wake-up (no lost wake-ups).
	lastCell *mcell
	lastVer  uint64
	// spinArmed is set by memory operations and consumed by Spin; a Spin
	// with no new memory access since the last one is a plain yield, not an
	// await (prevents back-to-back backoff Spins from deadlocking).
	spinArmed bool

	// hist is the rolling hash of this thread's observation sequence; with
	// deterministic bodies it pins the thread's entire local state.
	hist  uint64
	opIdx uint64

	// Stale-load machinery (Config.StaleLoads, WMM only). seen caches the
	// value this thread last observed per cell — the value a Relaxed load
	// may still legally return after memory has moved on. A candidate stale
	// read is announced as a scheduling fork: the thread suspends with a
	// pkStale pending, the explorer schedules Choice{Stale: true|false},
	// and staleTake carries the decision back.
	seen       map[*mcell]uint64
	pendingOld uint64
	staleTake  bool
}

// mix is a 64-bit hash combiner (splitmix-style finalization).
func mix(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// exec is one program instance: replayed to a prefix, then stepped by apply.
type exec struct {
	mode    Mode
	threads []*Proc
	cells   map[*lockapi.Cell]*mcell

	violation string

	// inCS tracks threads inside the critical section (mutual exclusion).
	inCS int

	// Fairness bookkeeping (bounded bypass).
	fairK        int
	acqTotal     int
	waitingSince []int // -1 when not waiting

	// stale enables the stale-load relaxation (Config.StaleLoads ∧ WMM).
	stale bool

	// stepCount is the number of transitions executed (the trace length);
	// lastStepIdx[t] is the trace index of thread t's latest operation (-1
	// before its first), anchoring the causal past of t's next transition;
	// lastFoot is the footprint of the most recent transition.
	stepCount   int
	lastStepIdx []int
	lastFoot    footprint
}

// newExec instantiates the program; no thread runs until replay. Only
// live.moveTo calls it, and the live instance's owner defers shutdown, which
// also covers a body that panics during the replay.
func newExec(prog Program, cfg Config) *exec {
	bodies := prog.Make()
	ex := &exec{
		mode:         cfg.Mode,
		cells:        make(map[*lockapi.Cell]*mcell),
		fairK:        cfg.FairnessK,
		stale:        cfg.StaleLoads && cfg.Mode == WMM,
		waitingSince: make([]int, len(bodies)),
		lastStepIdx:  make([]int, len(bodies)),
	}
	for i := range ex.waitingSince {
		ex.waitingSince[i] = -1
		ex.lastStepIdx[i] = -1
	}
	for i, body := range bodies {
		p := &Proc{ex: ex, tid: i, hist: uint64(i) + 1}
		ex.threads = append(ex.threads, p)
		p.co.Init(func() {
			body(p)
			// Trailing monitor calls after the last operation take effect
			// within that operation's grant.
			p.drainMon()
			p.done = true
		})
	}
	return ex
}

// cell registers (on first touch) and returns the checker state of c. The
// initial value is whatever the instance's setup code placed in the cell.
func (ex *exec) cell(c *lockapi.Cell) *mcell {
	m := ex.cells[c]
	if m == nil {
		m = &mcell{value: c.Raw().Load(), idx: uint64(len(ex.cells)) + 1}
		ex.cells[c] = m
	}
	return m
}

// commit applies a write to memory. A write of the value already present is
// unobservable — no reader can distinguish it — so it does not bump the
// version (this keeps TAS waiters, whose Swap(1) re-writes 1, from waking
// each other forever).
func commit(m *mcell, v, tid, opIdx uint64) {
	if m.value == v {
		return
	}
	m.value = v
	m.version++
	m.wTag = mix(0, tid+1, opIdx)
}

// apply executes one enabled scheduling decision: a flush commits buffer
// entry ch.Flush of thread ch.TID to memory; otherwise the thread is granted
// its announced transition, and ch.Stale resolves a pending stale-read fork
// (it is ignored, and false, otherwise).
func (ex *exec) apply(ch Choice) {
	t, p := ch.TID, ex.threads[ch.TID]
	if ch.Flush >= 0 {
		e := p.buffer[ch.Flush]
		commit(e.cell, e.value, uint64(t), e.opIdx)
		p.buffer = append(p.buffer[:ch.Flush], p.buffer[ch.Flush+1:]...)
		ex.lastFoot = footprint{tid: t, isFlush: true, cells: []fpCell{{e.cell.idx, true}}}
	} else {
		p.staleTake = ch.Stale
		p.co.Resume()
		ex.lastFoot = p.execFoot
		ex.lastStepIdx[t] = ex.stepCount
	}
	ex.stepCount++
}

// replay runs every thread to its first announced operation, then applies
// the schedule prefix in order, stopping at the first violation.
// Pre-operation body code is thread-local by construction (all shared
// accesses go through Proc), so sequential priming is schedule-neutral;
// monitor calls made before the first operation are buffered and take
// effect at its grant.
func (ex *exec) replay(prefix []Choice) {
	for _, p := range ex.threads {
		p.co.Resume()
	}
	for _, ch := range prefix {
		if ex.violation != "" {
			return
		}
		ex.apply(ch)
	}
}

// shutdown stops every thread: each suspended in announce is unwound from
// there; finished and never-started threads are left as they are.
func (ex *exec) shutdown() {
	for _, p := range ex.threads {
		p.co.Stop()
	}
}

// enabledChoices lists every schedulable transition.
func (ex *exec) enabledChoices() []Choice {
	var out []Choice
	for t, p := range ex.threads {
		switch {
		case p.done:
		case p.pend.kind == pkAwait:
			if p.pend.awaitOn.version != p.pend.awaitVer {
				out = append(out, Choice{TID: t, Flush: -1})
			}
		case p.pend.kind == pkStale:
			// The announced load forks: current value or last-seen.
			out = append(out, Choice{TID: t, Flush: -1})
			out = append(out, Choice{TID: t, Flush: -1, Stale: true})
		default:
			out = append(out, Choice{TID: t, Flush: -1})
		}
		for idx := range p.buffer {
			if ex.flushable(p, idx) {
				out = append(out, Choice{TID: t, Flush: idx})
			}
		}
	}
	return out
}

// flushable applies the memory-model ordering rules to buffer entries.
func (ex *exec) flushable(p *Proc, idx int) bool {
	if idx == 0 {
		return true
	}
	if ex.mode != WMM {
		return false // TSO: FIFO only
	}
	e := p.buffer[idx]
	if e.order != lockapi.Relaxed {
		return false // Release/SeqCst stores wait for predecessors
	}
	for i := 0; i < idx; i++ {
		if p.buffer[i].cell == e.cell {
			return false // same-location coherence
		}
	}
	return true
}

// allDone reports full quiescence.
func (ex *exec) allDone() bool {
	for _, p := range ex.threads {
		if !p.done || len(p.buffer) != 0 {
			return false
		}
	}
	return true
}

// fingerprint summarizes the state; equal fingerprints (with deterministic
// thread bodies) imply equal futures. A thread's pending operation needs no
// mixing of its own — it is a deterministic function of the observation
// history already pinned by hist — but the pending KIND must join the
// status: yields note at announce while operations note at grant, so when a
// backoff loop exhausts, "yield pending" and "next op pending" share the
// same hist and differ only in what is announced. Merging them undercounts
// states and can make the quotient-graph search skip reachable successors
// (observed on HBO, whose exponential backoff is exactly such a loop).
func (ex *exec) fingerprint() fingerprint {
	var fp fingerprint
	for seed := 0; seed < 2; seed++ {
		h := uint64(seed)*0xabcdef1234567891 + 1
		for t, p := range ex.threads {
			status := uint64(0)
			switch {
			case p.done:
				status = 2
			case p.pend.kind == pkAwait:
				status = 1
			case p.pend.kind == pkYield:
				status = 3
			}
			th := mix(p.hist, status)
			if !p.done && p.pend.kind == pkAwait {
				enabled := uint64(0)
				if p.pend.awaitOn.version != p.pend.awaitVer {
					enabled = 1
				}
				th = mix(th, enabled)
			}
			for _, e := range p.buffer {
				th = mix(th, uint64(e.order), e.value, e.opIdx)
			}
			if ex.fairK > 0 {
				// Bounded-bypass counters are state: a thread bypassed
				// twice is closer to a violation than one bypassed once.
				bypass := uint64(0)
				if since := ex.waitingSince[t]; since >= 0 {
					bypass = uint64(ex.acqTotal-since) + 1
				}
				th = mix(th, bypass)
			}
			if ex.stale {
				// The stale view is thread state: same memory, different
				// last-seen values ⇒ different reachable futures. Unordered
				// XOR, like the cell summary below.
				if p.pend.kind == pkStale {
					th = mix(th, 0x57a1e, p.pendingOld)
				}
				var sx uint64
				for m, v := range p.seen {
					sx ^= mix(uint64(seed)+11, m.idx, v)
				}
				th = mix(th, sx)
			}
			h = mix(h, th)
		}
		// Cells as an unordered XOR: each written cell contributes its
		// last-writer tag and value (never-written cells hold their initial
		// value in every reachable state, so they contribute a constant and
		// can be skipped).
		var cx uint64
		for _, m := range ex.cells {
			if m.wTag != 0 {
				cx ^= mix(uint64(seed)+7, m.wTag, m.value)
			}
		}
		fp[seed] = mix(h, cx)
	}
	return fp
}

// live is a search's one running program instance and the schedule it has
// executed. moveTo is the only way a search reaches a state, verdict the only
// way it ends a schedule. Check and CheckGuided defer shutdown, so a body
// that panics in any step leaves no thread behind.
type live struct {
	prog Program
	cfg  Config
	ex   *exec
	held []Choice
}

// moveTo brings the instance to the state after prefix and returns it. A
// prefix that extends the held schedule by one choice costs one apply; any
// other (a backtrack, or an instance that stopped at a violation) shuts the
// instance down and replays prefix on a fresh one. Both reach the same
// state: bodies are deterministic, and cell registration order is a
// function of the prefix.
func (l *live) moveTo(prefix []Choice) *exec {
	n := len(l.held)
	if l.ex != nil && l.ex.violation == "" && len(prefix) == n+1 && slices.Equal(prefix[:n], l.held) {
		l.ex.apply(prefix[n])
	} else {
		l.shutdown()
		l.ex = newExec(l.prog, l.cfg)
		l.ex.replay(prefix)
	}
	l.held = append(l.held[:0], prefix...)
	return l.ex
}

// shutdown stops the instance's threads, if there is an instance.
func (l *live) shutdown() {
	if l.ex != nil {
		l.ex.shutdown()
	}
}

// verdict judges the held state given its enabled transitions: a monitor
// violation, or, once nothing is enabled, a Final failure at quiescence or a
// deadlock. end reports that the schedule stops here; violation is "" when
// it stops cleanly or goes on.
func (l *live) verdict(enabled []Choice) (violation string, end bool) {
	ex := l.ex
	switch {
	case ex.violation != "":
		return ex.violation, true
	case len(enabled) > 0:
		return "", false
	case !ex.allDone():
		return "deadlock (threads blocked with no enabled transition)", true
	case l.prog.Final != nil:
		if msg := l.prog.Final(func(c *lockapi.Cell) uint64 { return ex.cell(c).value }); msg != "" {
			return "final state: " + msg, true
		}
	}
	return "", true
}

// ---- Proc: lockapi.Proc implementation ----

// fpReset/fpAdd build the next announcement's footprint in the reusable
// per-thread backing array.
func (p *Proc) fpReset()                { p.footCells = p.footCells[:0] }
func (p *Proc) fpAdd(m *mcell, wr bool) { p.footCells = append(p.footCells, fpCell{m.idx, wr}) }

// fpAddBuffer marks every buffered store as a potential write of this
// transition (drain footprints for RMWs, strong fences, SeqCst stores).
// Conservative: entries flushed between announce and grant shrink the real
// drain, never grow it.
func (p *Proc) fpAddBuffer() {
	for i := range p.buffer {
		p.fpAdd(p.buffer[i].cell, true)
	}
}

// announce suspends the thread with its next transition until a grant; on
// resume it records the executed footprint and applies the buffered
// monitor calls (see the Proc comment for why this preserves exact verdict
// timing).
func (p *Proc) announce(pd pending) {
	pd.foot = footprint{tid: p.tid, mon: p.monPending(), cells: p.footCells}
	p.pend = pd
	p.co.Yield()
	p.execCells = append(p.execCells[:0], p.pend.foot.cells...)
	p.execFoot = footprint{tid: p.tid, mon: p.pend.foot.mon, cells: p.execCells}
	p.drainMon()
}

// monPending reports whether the buffered monitor calls will touch monitor
// state (critical-section nesting, or fairness counters when the
// bounded-bypass check is active) — the mon bit of the pending footprint.
func (p *Proc) monPending() bool {
	for _, e := range p.monQ {
		switch e.kind {
		case monEnterCS, monExitCS:
			return true
		case monBeginWait, monEndWait:
			if p.ex.fairK > 0 {
				return true
			}
		}
	}
	return false
}

// drainMon applies the buffered monitor calls in program order.
func (p *Proc) drainMon() {
	for _, e := range p.monQ {
		switch e.kind {
		case monEnterCS:
			p.ex.inCS++
			if p.ex.inCS > 1 {
				p.ex.violation = "mutual exclusion violated"
			}
			p.execFoot.mon = true
		case monExitCS:
			p.ex.inCS--
			p.execFoot.mon = true
		case monBeginWait:
			if p.ex.fairK > 0 {
				p.ex.waitingSince[p.tid] = p.ex.acqTotal
				p.execFoot.mon = true
			}
		case monEndWait:
			if p.ex.fairK > 0 {
				p.ex.waitingSince[p.tid] = -1
				p.ex.acqTotal++
				for _, since := range p.ex.waitingSince {
					if since >= 0 && p.ex.acqTotal-since >= p.ex.fairK {
						p.ex.violation = "bounded bypass violated (starvation witness)"
					}
				}
				p.execFoot.mon = true
			}
		case monAssert:
			if !e.cond && p.ex.violation == "" {
				p.ex.violation = "assertion failed: " + e.msg
			}
		}
	}
	p.monQ = p.monQ[:0]
}

// readView returns the value of m as seen by this thread (own store buffer
// first, then memory).
func (p *Proc) readView(m *mcell) uint64 {
	for i := len(p.buffer) - 1; i >= 0; i-- {
		if p.buffer[i].cell == m {
			return p.buffer[i].value
		}
	}
	return m.value
}

// drainBuffer commits this thread's buffered stores FIFO (RMWs and strong
// fences do this).
func (p *Proc) drainBuffer() {
	for len(p.buffer) > 0 {
		e := p.buffer[0]
		commit(e.cell, e.value, uint64(p.tid), e.opIdx)
		p.buffer = p.buffer[1:]
	}
}

// commitWrite writes through to memory.
func (p *Proc) commitWrite(m *mcell, v uint64) {
	commit(m, v, uint64(p.tid), p.opIdx)
}

const (
	opLoad uint64 = iota + 1
	opStore
	opAdd
	opSwap
	opCAS
	opFence
	opSpin
)

func (p *Proc) note(op uint64, vals ...uint64) {
	p.opIdx++
	p.hist = mix(p.hist, op, p.opIdx)
	p.hist = mix(p.hist, vals...)
}

// buffered reports whether this thread has a pending store to m (such a
// load must forward from the buffer, so it can never be stale).
func (p *Proc) buffered(m *mcell) bool {
	for i := range p.buffer {
		if p.buffer[i].cell == m {
			return true
		}
	}
	return false
}

// seenSet records the value this thread just observed (or wrote) at m.
func (p *Proc) seenSet(m *mcell, v uint64) {
	if p.seen == nil {
		p.seen = make(map[*mcell]uint64)
	}
	p.seen[m] = v
}

// Load implements lockapi.Proc. With StaleLoads active, a Relaxed load of a
// cell whose memory value moved past this thread's last observation forks:
// it announces the candidate (one scheduling step) and the explorer decides
// between the current value and the stale one. Coherence is respected — the
// only alternative offered is the thread's own last-seen value, so a thread
// never reads backwards past what it already observed. Acquire and SeqCst
// loads discard the thread's stale views and always read current memory.
func (p *Proc) Load(c *lockapi.Cell, o lockapi.Order) uint64 {
	m := p.ex.cell(c)
	p.fpReset()
	p.fpAdd(m, false)
	p.announce(pending{kind: pkOp})
	v := p.readView(m)
	if p.ex.stale {
		if o == lockapi.Relaxed && !p.buffered(m) {
			if old, ok := p.seen[m]; ok && old != v {
				// Announce the fork and suspend until the explorer decides.
				p.pendingOld = old
				p.fpReset()
				p.fpAdd(m, false)
				p.announce(pending{kind: pkStale})
				if p.staleTake {
					v = old
				} else {
					v = p.readView(m) // current as of the decision
				}
			}
		} else if o != lockapi.Relaxed {
			clear(p.seen)
		}
		p.seenSet(m, v)
	}
	p.lastCell = m
	p.lastVer = m.version
	p.spinArmed = true
	p.note(opLoad, v)
	return v
}

// Store implements lockapi.Proc. Under SC it writes through; under TSO/WMM
// it enters the store buffer (no memory effect at this transition — the
// commit belongs to the flush pseudo-transition) and commits at a later
// flush.
func (p *Proc) Store(c *lockapi.Cell, v uint64, o lockapi.Order) {
	m := p.ex.cell(c)
	writeThrough := p.ex.mode == SC || o == lockapi.SeqCst
	p.fpReset()
	if writeThrough {
		if o == lockapi.SeqCst {
			p.fpAddBuffer()
		}
		p.fpAdd(m, true)
	}
	p.announce(pending{kind: pkOp})
	p.lastCell = m
	p.spinArmed = true
	if p.ex.stale {
		// Own writes dominate the thread's view (readView forwards from the
		// buffer until the flush, and coherence after it).
		p.seenSet(m, v)
	}
	p.note(opStore, v)
	if writeThrough {
		if o == lockapi.SeqCst {
			p.drainBuffer()
		}
		p.commitWrite(m, v)
	} else {
		p.buffer = append(p.buffer, bufEntry{cell: m, value: v, order: o, opIdx: p.opIdx, issueIdx: p.ex.stepCount})
	}
	p.lastVer = m.version
}

// Add implements lockapi.Proc (returns the new value). RMWs drain the store
// buffer and act on memory, like hardware atomics.
func (p *Proc) Add(c *lockapi.Cell, delta uint64, _ lockapi.Order) uint64 {
	m := p.ex.cell(c)
	p.fpReset()
	p.fpAddBuffer()
	p.fpAdd(m, true)
	p.announce(pending{kind: pkOp})
	p.drainBuffer()
	nv := m.value + delta
	p.commitWrite(m, nv)
	p.rmwSeen(m, nv)
	p.lastCell = m
	p.lastVer = m.version
	p.spinArmed = true
	p.note(opAdd, nv)
	return nv
}

// Swap implements lockapi.Proc (returns the old value).
func (p *Proc) Swap(c *lockapi.Cell, v uint64, _ lockapi.Order) uint64 {
	m := p.ex.cell(c)
	p.fpReset()
	p.fpAddBuffer()
	p.fpAdd(m, true)
	p.announce(pending{kind: pkOp})
	p.drainBuffer()
	old := m.value
	p.commitWrite(m, v)
	p.rmwSeen(m, v)
	p.lastCell = m
	p.lastVer = m.version
	p.spinArmed = true
	p.note(opSwap, old)
	return old
}

// CAS implements lockapi.Proc. Announced as a write whether or not it will
// succeed (the outcome is unknown until execution).
func (p *Proc) CAS(c *lockapi.Cell, old, new uint64, _ lockapi.Order) bool {
	m := p.ex.cell(c)
	p.fpReset()
	p.fpAddBuffer()
	p.fpAdd(m, true)
	p.announce(pending{kind: pkOp})
	p.drainBuffer()
	ok := m.value == old
	if ok {
		p.commitWrite(m, new)
	}
	p.rmwSeen(m, m.value)
	p.lastCell = m
	p.lastVer = m.version
	p.spinArmed = true
	var okBit uint64
	if ok {
		okBit = 1
	}
	p.note(opCAS, okBit)
	return ok
}

// rmwSeen records an RMW's observation under StaleLoads: atomics read the
// current value, so the thread's stale views of every cell are discharged
// and its view of m is the RMW's result.
func (p *Proc) rmwSeen(m *mcell, v uint64) {
	if !p.ex.stale {
		return
	}
	clear(p.seen)
	p.seenSet(m, v)
}

// Fence implements lockapi.Proc: strong fences drain the store buffer, and
// under StaleLoads they also discharge the thread's stale views — the
// Acquire fence in seqlock's ReadValidate is exactly this edge.
func (p *Proc) Fence(o lockapi.Order) {
	p.fpReset()
	if o != lockapi.Relaxed {
		p.fpAddBuffer()
	}
	p.announce(pending{kind: pkOp})
	if o != lockapi.Relaxed {
		p.drainBuffer()
		if p.ex.stale {
			clear(p.seen)
		}
	}
	p.note(opFence, uint64(o))
}

// Spin implements lockapi.Proc: an armed Spin awaits a change of the last
// accessed cell (collapsing the spin loop); an unarmed Spin (no memory
// access since the previous one) is a plain yield. The await takes effect
// at the announcement — the thread parks disabled immediately, without a
// separate schedulable parking step (the old parking step had no shared
// effect, so eliding it preserves verdicts and shrinks the state space).
func (p *Proc) Spin() {
	p.note(opSpin)
	if p.spinArmed && p.lastCell != nil {
		p.spinArmed = false
		m, ver := p.lastCell, p.lastVer
		p.fpReset()
		p.fpAdd(m, false)
		p.announce(pending{kind: pkAwait, awaitOn: m, awaitVer: ver})
	} else {
		p.fpReset()
		p.announce(pending{kind: pkYield})
	}
}

// ID implements lockapi.Proc.
func (p *Proc) ID() int { return p.tid }

// EnterCS marks critical-section entry; two concurrent holders violate
// mutual exclusion. Like all monitor calls it is buffered and takes effect
// when the next operation executes (or at thread completion).
func (p *Proc) EnterCS() {
	p.monQ = append(p.monQ, monEntry{kind: monEnterCS})
}

// ExitCS marks critical-section exit.
func (p *Proc) ExitCS() {
	p.monQ = append(p.monQ, monEntry{kind: monExitCS})
}

// BeginWait marks the start of a lock acquisition (bounded-bypass check).
func (p *Proc) BeginWait() {
	p.monQ = append(p.monQ, monEntry{kind: monBeginWait})
}

// EndWait marks a successful acquisition; if any still-waiting thread has
// been bypassed FairnessK times, that is a fairness violation.
func (p *Proc) EndWait() {
	p.monQ = append(p.monQ, monEntry{kind: monEndWait})
}

// Assert reports a program-specific invariant violation (the condition is
// evaluated at the call site; the report lands with the next operation).
func (p *Proc) Assert(cond bool, msg string) {
	p.monQ = append(p.monQ, monEntry{kind: monAssert, cond: cond, msg: msg})
}

var _ lockapi.Proc = (*Proc)(nil)
