// Package memsim is a deterministic discrete-event simulator of a
// multi-level NUMA machine. It is this repository's substitute for the
// paper's physical x86 and Armv8 servers (see DESIGN.md §1): Go cannot pin
// goroutines to CPUs and its scheduler/GC distort spin behavior, so all
// paper experiments run on simulated hardware instead.
//
// The model is deliberately first-order: performance of contended locks is
// dominated by cache-line transfer latencies between levels of the memory
// hierarchy, by the invalidation cost of writes to widely shared lines, and
// — on Armv8 — by load-exclusive/store-exclusive retry storms under
// competing read-modify-writes. memsim charges per-operation costs from a
// latency table calibrated against the paper's Table 2 and serializes all
// operations in virtual-time order, so results are exactly reproducible for
// a given seed.
//
// Virtual CPUs are coroutines in a strict turn-taking protocol: at any
// instant at most one simulated operation executes, so the machine state
// needs no locking and the simulation is deterministic.
//
// # Execution core: coroutines, nested dispatch and the run-ahead fast path
//
// Each virtual CPU is a runtime coroutine (internal/coro), and there is no
// separate scheduler loop. A thread that must wait — behind an earlier
// event, parked on a line, or because its workload returned — pops the
// earliest (time, seq) event itself, advances the machine clock and hands
// the turn over (dispatch). The threads suspended inside one another's
// Resume form the dispatch stack, with Machine.Run at the bottom. A granted
// thread off the stack the waiting thread resumes directly, nested; one on
// the stack, beneath it, it reaches by yielding, and the stack unwinds down
// to that thread. A coroutine switch is a direct goroutine switch that
// bypasses the Go scheduler's run queues and uses no channel, and most
// handoffs cost one, where a central scheduler loop would pay two for every
// grant: out of the waiting thread, then into the next. Result.Switches
// counts them.
//
// Most operations do not switch at all. After charging an operation, the
// running virtual CPU checks the event queue's cached minimum inline, in
// Proc.advance itself, and if it is still strictly the globally earliest
// thread — and inside the horizon — it simply keeps executing, advancing
// the machine clock itself, without a call. Spin loops and uncontended
// critical sections, the dominant operation streams of every lock
// benchmark, therefore run switch-free. Otherwise the thread requeues
// itself and takes the next grant in one step (Proc.yieldAt, one
// eventq PushPop: a single sift where a Push and a Pop make two).
//
// Neither the nested dispatch nor the fast path is visible in the
// simulation. Every grant is the queue's next pop, made the instant the
// previous thread gives up the turn, and a thread may run ahead only under
// exactly the condition that would make that pop grant it the very next
// event (queue empty, or its time strictly below the queue minimum — ties
// go to the queued entry, which was pushed earlier and holds the smaller
// sequence number), so the (time, seq) grant order — and with it every
// simulated result, including Result.Events — is the queue's pop order.
// TestRunAheadEquivalence pins that schedule bit for bit.
package memsim

import (
	"fmt"

	"github.com/clof-go/clof/internal/eventq"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/xrand"
)

// Latency is the cost model, in virtual nanoseconds. DefaultLatency
// produces it, calibrated (see calibration tests) so that the two-thread
// ping-pong benchmark reproduces the paper's Table 2 speedups.
type Latency struct {
	// Hit is the cost of an access satisfied by the local cache.
	Hit int64
	// MemBase is the cost of the first access to a line nobody owns.
	MemBase int64
	// Transfer[l] is the cache-to-cache transfer cost when the line's
	// current owner shares level l (topo.Core..topo.System) with the
	// requester. It also serves as the invalidation-notice latency for
	// parked spinners.
	Transfer [5]int64
	// RMWBase is the extra cost of a read-modify-write over a load/store.
	RMWBase int64
	// Upgrade is the cost of a write by a CPU that already holds a valid
	// shared copy (MESI S→M upgrade: an invalidation round, no data
	// fetch). Read-then-write patterns pay this instead of a transfer.
	Upgrade int64
	// SharerInval is the per-sharer cost a write pays to invalidate shared
	// copies (the MESI shared→modified upgrade broadcast). This is what
	// makes global spinning (Ticketlock) expensive at high contention.
	SharerInval int64
	// SharerInvalCap bounds the number of sharers charged.
	SharerInvalCap int
	// LLSCRetry is the Armv8-only retry cost an RMW pays per *storming*
	// competitor: a thread continuously issuing RMWs on the same line (a
	// fetch_add(0) or CAS spin loop) keeps stealing the exclusive
	// reservation, so load-exclusive/store-exclusive pairs of other CPUs
	// fail repeatedly. Alternating, non-overlapping RMWs (e.g. a ticket
	// handover) carry no penalty. Zero on x86.
	LLSCRetry int64
	// LLSCRetryCap bounds the number of stormers charged to one RMW.
	LLSCRetryCap int
	// SpinGap is the cost of one Proc.Spin() hint.
	SpinGap int64
}

// DefaultLatency returns the calibrated cost model for an architecture.
//
// The transfer table is fitted to the paper's Table 2: throughput of the
// ping-pong counter is ∝ 1/(2·Transfer[l] + c), so the table is chosen to
// reproduce the reported speedups (x86: 1.00/1.54/1.54/9.07/12.18 for
// system/package/NUMA/cache-group/core; Armv8: 1.00/1.76/2.98/7.04 for
// system/package/NUMA/cache-group).
func DefaultLatency(arch topo.Arch) Latency {
	l := Latency{
		Hit:            2,
		MemBase:        90,
		RMWBase:        2,
		Upgrade:        10,
		SharerInval:    8,
		SharerInvalCap: 48,
		SpinGap:        3,
	}
	if arch == topo.X86 {
		//                  core  cache  numa  pkg  system
		l.Transfer = [5]int64{14, 22, 191, 191, 300}
	} else {
		l.Transfer = [5]int64{15, 32, 93, 165, 300}
		l.LLSCRetry = 2000
		l.LLSCRetryCap = 4
	}
	return l
}

// Config configures a Machine.
type Config struct {
	// Machine is the simulated topology (required).
	Machine *topo.Machine
	// Seed seeds all randomness (jitter). Equal seeds ⇒ identical runs.
	Seed uint64
	// JitterNS adds a uniform [0, JitterNS) per-operation delay to break
	// artificial lockstep patterns. 0 disables jitter.
	JitterNS int64
	// CPUSpeed optionally scales each CPU's compute time (Proc.Work):
	// factor 3 means local work takes 3x longer (a LITTLE core). Memory
	// latencies are unaffected. nil = all CPUs at factor 1.
	CPUSpeed []float64
	// Trace, when non-nil, receives one event per memory operation (after
	// its effects commit). For debugging lock protocols; adds overhead.
	Trace func(ev TraceEvent)
}

// TraceEvent describes one committed simulated memory operation.
type TraceEvent struct {
	// Time is the operation's completion time (ns).
	Time int64
	// CPU is the issuing virtual CPU.
	CPU int
	// Op is the operation kind: "load", "store", "add", "swap", "cas",
	// "cas!" (a failed compare) or "preempt". Spin hints, local work, parks
	// and wake-ups emit no event.
	Op string
	// Cell is the accessed cell (nil for preempt, which touches none).
	Cell *lockapi.Cell
	// Value is the value read/written (CAS: the new value on success).
	Value uint64
	// Cost is the charged latency in ns.
	Cost int64
}

// cpuSet is a fixed-size CPU bitset with a cached population count, the
// per-line presence bits of a coherence directory: add/del/has/reset are
// branch-cheap and allocation-free, which the zero-allocs-per-op guarantee
// depends on.
type cpuSet struct {
	bits []uint64
	n    int
}

func (s *cpuSet) init(ncpu int) { s.bits = make([]uint64, (ncpu+63)/64) }

func (s *cpuSet) add(cpu int) {
	w, b := cpu>>6, uint64(1)<<uint(cpu&63)
	if s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.n++
	}
}

func (s *cpuSet) del(cpu int) {
	w, b := cpu>>6, uint64(1)<<uint(cpu&63)
	if s.bits[w]&b != 0 {
		s.bits[w] &^= b
		s.n--
	}
}

func (s *cpuSet) has(cpu int) bool {
	return s.bits[cpu>>6]&(uint64(1)<<uint(cpu&63)) != 0
}

func (s *cpuSet) reset() {
	if s.n == 0 {
		return
	}
	clear(s.bits)
	s.n = 0
}

func (s *cpuSet) count() int { return s.n }

// line is the coherence state of one simulated cache line (one Cell or one
// Colocate group), all of it kept here, as a directory keeps it per line.
// It hangs off the line's lockapi slot for the length of one Run, so every
// cell of the line reaches it in one step; Run's shutdown clears the slot.
type line struct {
	// slot is the lockapi line slot this state hangs off.
	slot *any
	// owner is the CPU of the last writer, or -1.
	owner int
	// sharers holds CPUs with a shared copy since the last write: the
	// copies a write pays to invalidate.
	sharers cpuSet
	// valid holds the CPUs whose cached copy is current: a modification
	// leaves only the writer, and a CPU joins by fetching the line (a
	// miss, a wake-up, a fetch_add(0) or a failed CAS). It differs from
	// sharers in two cases: fetch_add(0) resets the sharers but leaves
	// other CPUs' copies current, and a failed CAS makes the caller's
	// copy current without making it a sharer.
	valid cpuSet
	// watchers are procs parked until this line changes.
	watchers []*Proc
	// stormers counts threads currently in an RMW spin loop on this line
	// (consecutive RMWs with no other memory operation in between); used by
	// the Armv8 LL/SC retry model.
	stormers int
}

// Result summarizes a completed run.
type Result struct {
	// Now is the virtual time at which the run stopped.
	Now int64
	// Events is the number of simulation events granted: one per simulated
	// operation slot, whether Run resumed the thread or the run-ahead fast
	// path granted it inline.
	Events uint64
	// Deadlock reports that the event queue drained with threads still
	// parked before the horizon was reached.
	Deadlock bool
	// ParkedCPUs lists the CPUs that were still parked at the end.
	ParkedCPUs []int
	// Switches counts the coroutine switches the run made: every resume of
	// a virtual CPU and every yield or return that handed the turn back.
	// The stops that unwind the remaining threads after the run are not
	// counted. It is the simulator's host-side cost, not part of the
	// simulated outcome.
	Switches uint64
}

// String formats the simulated outcome — every field but Switches, which
// depends on how the execution core takes turns, not on the schedule.
func (r Result) String() string {
	return fmt.Sprintf("{Now:%d Events:%d Deadlock:%t ParkedCPUs:%v}", r.Now, r.Events, r.Deadlock, r.ParkedCPUs)
}

// Machine is a simulated multi-level NUMA machine. Create with New, add
// virtual CPUs with Spawn, then call Run exactly once.
type Machine struct {
	topo *topo.Machine
	lat  Latency
	arch topo.Arch
	ncpu int
	rng  *xrand.Rand
	// jitter draws each event's jitter, uniform in [0, JitterNS], as a
	// remainder modulo JitterNS+1; its zero value means no jitter.
	jitter divisor
	speeds []float64
	trace  func(ev TraceEvent)
	// lines holds every line this run created, in creation order.
	lines []*line
	// cohorts[cpu][l] is topo's CohortOf(cpu, l) for every level below
	// System, precomputed so shareLevel compares instead of dividing.
	cohorts [][topo.System]int32
	q       eventq.Queue[*Proc]
	threads []*Proc
	// spawned holds the CPUs that have a thread: cache state is per CPU,
	// so each CPU runs at most one.
	spawned cpuSet
	horizon int64
	now     int64
	events  uint64
	started bool
	// pending is the thread granted the next event that has not taken the
	// turn yet: the dispatch stack is unwinding down to it.
	pending *Proc
	// ended is set once no event is left to grant before the horizon, and
	// horizonHit when it was the horizon that ended the run.
	ended, horizonHit bool
	switches          uint64
}

// New builds a machine from cfg. It panics on an invalid topology, since
// that is a programming error in test/benchmark setup.
func New(cfg Config) *Machine {
	if cfg.Machine == nil {
		panic("memsim: Config.Machine is required")
	}
	if err := cfg.Machine.Validate(); err != nil {
		panic(err)
	}
	if cfg.CPUSpeed != nil && len(cfg.CPUSpeed) != cfg.Machine.NumCPUs() {
		panic(fmt.Sprintf("memsim: CPUSpeed has %d entries for %d CPUs", len(cfg.CPUSpeed), cfg.Machine.NumCPUs()))
	}
	ncpu := cfg.Machine.NumCPUs()
	cohorts := make([][topo.System]int32, ncpu)
	for cpu := range cohorts {
		for l := topo.Core; l < topo.System; l++ {
			cohorts[cpu][l] = int32(cfg.Machine.CohortOf(cpu, l))
		}
	}
	var jitter divisor
	if cfg.JitterNS > 0 {
		jitter = newDivisor(uint64(cfg.JitterNS) + 1)
	}
	m := &Machine{
		topo:    cfg.Machine,
		lat:     DefaultLatency(cfg.Machine.Arch),
		arch:    cfg.Machine.Arch,
		ncpu:    ncpu,
		rng:     xrand.New(cfg.Seed ^ 0xC10F),
		jitter:  jitter,
		speeds:  cfg.CPUSpeed,
		trace:   cfg.Trace,
		cohorts: cohorts,
	}
	m.spawned.init(ncpu)
	return m
}

// shareLevel is topo's ShareLevel(a, b) read from the cohort table.
func (m *Machine) shareLevel(a, b int) topo.Level {
	ca, cb := &m.cohorts[a], &m.cohorts[b]
	for l := topo.Core; l < topo.System; l++ {
		if ca[l] == cb[l] {
			return l
		}
	}
	return topo.System
}

// Now returns the current virtual time in nanoseconds.
func (m *Machine) Now() int64 { return m.now }

// lineOf returns the coherence state of a cell's cache line (colocated
// cells share one, see lockapi.Colocate), creating it on the run's first
// touch of the line.
func (m *Machine) lineOf(c *lockapi.Cell) *line {
	slot := c.LineSlot()
	if ln, ok := (*slot).(*line); ok {
		return ln
	}
	return m.newLine(slot)
}

// newLine creates the line that hangs off slot for the rest of the run. It
// is lineOf's first-touch path, kept out of line so that the hit path
// carries none of its code.
//
//go:noinline
func (m *Machine) newLine(slot *any) *line {
	ln := &line{slot: slot, owner: -1}
	ln.sharers.init(m.ncpu)
	ln.valid.init(m.ncpu)
	*slot = ln
	m.lines = append(m.lines, ln)
	return ln
}
