// Package lockapi defines the execution interface shared by every lock
// implementation in this repository.
//
// Lock algorithms are written once against the Proc ("processor handle")
// interface and run unmodified on three backends:
//
//   - the native backend (this package), mapping operations to sync/atomic
//     for real goroutine-level use and testing.B benchmarks;
//   - the memsim backend (internal/memsim), a deterministic discrete-event
//     simulator of a multi-level NUMA machine with a cache-coherence cost
//     model;
//   - the mcheck backend (internal/mcheck), an exhaustive-interleaving model
//     checker that honors the per-operation memory-order annotations.
//
// All shared mutable state lives in 64-bit Cells. Structures that would be
// pointer-linked in C (MCS queue nodes, CLH nodes) are represented as integer
// handles into per-lock node tables so that every atomic word is a plain
// uint64 on every backend.
package lockapi

import (
	"runtime"
	"sync/atomic"
)

// Order is a memory-order annotation in the style of C11/VSync atomics.
//
// The native backend ignores Order: Go's sync/atomic operations are
// sequentially consistent, which is stronger than any annotation here (this
// mirrors running an over-fenced lock on real hardware — always correct,
// possibly slower). The mcheck backend interprets Order: in its TSO mode a
// Relaxed store may be delayed in a store buffer past subsequent operations,
// so a lock that wrongly relaxes a needed barrier fails verification.
type Order uint8

const (
	// Relaxed imposes no ordering beyond atomicity.
	Relaxed Order = iota
	// Acquire orders the operation before all subsequent accesses.
	Acquire
	// Release orders the operation after all preceding accesses.
	Release
	// AcqRel combines Acquire and Release (for read-modify-writes).
	AcqRel
	// SeqCst is sequentially consistent and acts as a full fence.
	SeqCst
)

// String returns the conventional short name of the order.
func (o Order) String() string {
	switch o {
	case Relaxed:
		return "rlx"
	case Acquire:
		return "acq"
	case Release:
		return "rel"
	case AcqRel:
		return "acq_rel"
	case SeqCst:
		return "seq_cst"
	}
	return "order(?)"
}

// Cell is a 64-bit shared atomic slot. The zero value is a Cell holding 0.
//
// The simulator keeps its cache-line state in the cell's line slot
// (LineSlot) and the model checker keys its variable identity by the
// Cell's address, so a Cell must not be copied after first use.
//
// By default every Cell occupies its own simulated cache line. Colocate
// groups cells onto one line, mirroring how a C implementation lays out
// struct fields — essential for cost fidelity: a Ticketlock's two counters
// share a line (so arrivals disturb grant spinners), an MCS node's next and
// locked words share a line, and CLoF's per-level metadata words share a
// line (so one transfer serves the waiters counter, the pass flag, and the
// keep_local counter together).
type Cell struct {
	_ noCopy
	v atomic.Uint64
	// line is the slot of the cell's cache line: shared by the cells
	// Colocate grouped, allocated for a lone cell by its first LineSlot.
	line *any
}

// Raw returns the underlying atomic word. It is intended for backends and
// tests; lock algorithms must go through a Proc.
func (c *Cell) Raw() *atomic.Uint64 { return &c.v }

// Init sets the cell's value during single-threaded setup.
func (c *Cell) Init(v uint64) { c.v.Store(v) }

// LineSlot returns the opaque slot of the cell's simulated cache line, in
// which the simulator keeps its state for the line during a run: colocated
// cells share one slot, and a lone cell gets its own on the first call.
func (c *Cell) LineSlot() *any {
	if c.line == nil {
		c.line = new(any)
	}
	return c.line
}

// Colocate places the given cells on one simulated cache line (struct-field
// layout). Only safe during single-threaded setup, before any Proc touches
// the cells. Cells already colocated join the first cell's line.
func Colocate(cells ...*Cell) {
	if len(cells) == 0 {
		return
	}
	slot := cells[0].line
	if slot == nil {
		slot = new(any)
	}
	for _, c := range cells {
		c.line = slot
	}
}

// noCopy triggers `go vet -copylocks` when a containing struct is copied.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Proc is a handle to the executing processor/thread. Every memory operation
// a lock performs goes through a Proc so that the same algorithm can run on
// native atomics, on the NUMA simulator, or inside the model checker.
//
// A Proc is owned by a single thread of execution and must not be shared.
type Proc interface {
	// Load atomically reads the cell.
	Load(c *Cell, o Order) uint64
	// Store atomically writes the cell.
	Store(c *Cell, v uint64, o Order)
	// CAS atomically compares-and-swaps the cell and reports success.
	CAS(c *Cell, old, new uint64, o Order) bool
	// Add atomically adds delta and returns the NEW value.
	Add(c *Cell, delta uint64, o Order) uint64
	// Swap atomically exchanges the cell's value and returns the OLD value.
	Swap(c *Cell, v uint64, o Order) uint64
	// Fence issues a standalone memory fence.
	Fence(o Order)
	// Spin hints that the caller is waiting for ANOTHER THREAD to change
	// the last-observed location. Backends use it to back off (native),
	// park until the watched line changes (memsim), or collapse the loop
	// into an await (mcheck). Consequently, pure CAS-retry loops — where a
	// failed CAS itself proves the location just changed — must NOT call
	// Spin, or those backends will block on a change that may never come
	// (mcheck's TestCASRetryMustNotSpin shows the checker's deadlock). A
	// loop that polls for another thread must call it (TestPollLoopsMustSpin).
	Spin()
	// ID returns the processor/thread identifier (a virtual CPU number on
	// the simulator, a worker index natively).
	ID() int
}

// Ctx is an opaque per-thread, per-lock context ("queue node" state). Locks
// that spin locally enqueue their Ctx; locks without a context return nil
// from NewCtx and ignore the argument.
type Ctx any

// Lock is the uniform spinlock interface (the paper's acquire/release
// interface after context abstraction, §4.1.3): context-free locks simply
// ignore the Ctx argument.
//
// CLoF requires the context invariant: a Ctx must never be used in two
// concurrent acquire/release operations. Most locks additionally require
// thread-obliviousness only in the sense that Release may run on a different
// thread than Acquire provided it uses the same Ctx.
type Lock interface {
	// NewCtx allocates a fresh context for this lock, or returns nil if the
	// lock needs none. NewCtx is only safe during single-threaded setup.
	NewCtx() Ctx
	// Acquire blocks until the lock is held by the caller.
	Acquire(p Proc, c Ctx)
	// Release releases the lock. It must be called with the same Ctx that
	// acquired it (possibly from a different thread).
	Release(p Proc, c Ctx)
}

// WaiterDetector is implemented by basic locks that can cheaply detect
// waiters (paper §4.1.2: MCS checks its next pointer, Ticketlock compares
// ticket and grant). CLoF uses it as the custom has_waiters and then drops
// its own inc_waiters/dec_waiters counter. Wrappers do not forward it, so a
// lock that has the method always detects: a type assertion is the query.
type WaiterDetector interface {
	// HasWaiters reports whether some other thread is currently waiting to
	// acquire the lock. It may only be called by the lock owner, with the
	// Ctx that holds the lock.
	HasWaiters(p Proc, c Ctx) bool
}

// NativeProc is the native backend: operations map directly to sync/atomic
// (sequentially consistent, hence correct for any Order annotation) and Spin
// yields to the Go scheduler periodically so that spinning goroutines do not
// starve the runtime when threads outnumber GOMAXPROCS.
type NativeProc struct {
	id    int
	spins uint32
}

// NewNativeProc returns a native processor handle with the given worker id.
func NewNativeProc(id int) *NativeProc { return &NativeProc{id: id} }

// Load implements Proc.
func (p *NativeProc) Load(c *Cell, _ Order) uint64 { return c.v.Load() }

// Store implements Proc.
func (p *NativeProc) Store(c *Cell, v uint64, _ Order) { c.v.Store(v) }

// CAS implements Proc.
func (p *NativeProc) CAS(c *Cell, old, new uint64, _ Order) bool {
	return c.v.CompareAndSwap(old, new)
}

// Add implements Proc.
func (p *NativeProc) Add(c *Cell, delta uint64, _ Order) uint64 {
	return c.v.Add(delta)
}

// Swap implements Proc.
func (p *NativeProc) Swap(c *Cell, v uint64, _ Order) uint64 {
	return c.v.Swap(v)
}

// Fence implements Proc. Go offers no standalone fence; a SeqCst RMW on a
// private cell has the same ordering effect and native code never relies on
// weaker-than-SC behavior anyway, so this is a no-op.
func (p *NativeProc) Fence(_ Order) {}

// Spin implements Proc: busy-iterate briefly, then yield to the scheduler.
// Without the yield, spinning goroutines pin their Ps and deadlock workloads
// where waiters outnumber GOMAXPROCS.
func (p *NativeProc) Spin() {
	p.spins++
	if p.spins%16 == 0 {
		runtime.Gosched()
	}
}

// ID implements Proc.
func (p *NativeProc) ID() int { return p.id }

var _ Proc = (*NativeProc)(nil)
