// Package clof is CLoF-Go: a Go implementation of the Compositional Lock
// Framework for multi-level NUMA systems (Chehab et al., SOSP 2021), with
// the complete substrate needed to reproduce the paper's evaluation — a
// deterministic NUMA machine simulator, the basic spinlocks, the HMCS, CNA,
// ShflLock and lock-cohorting baselines, a small model checker, and the
// benchmark workloads.
//
// This package is the stable public facade; the implementation lives under
// internal/. The paper's workflow (its Fig. 5) maps to:
//
//	h, _   := clof.DetectHierarchy(clof.Armv8Server(), 0, 0)     // §3.1
//	comps  := clof.Generate(clof.BasicLocks(clof.ArmV8), h.Depth())
//	...run the scripted benchmark (see cmd/clof-bench)...         // §4.3
//	lock   := clof.MustNewLock(h, "tkt-clh-tkt-tkt")               // §4.1
//
// Locks are used through per-thread contexts; a Proc identifies the
// executing CPU (see examples/quickstart):
//
//	ctx := lock.NewCtx()               // one per worker, at setup
//	p   := clof.NewNativeProc(cpu)     // worker's processor handle
//	lock.Acquire(p, ctx)
//	... critical section ...
//	lock.Release(p, ctx)
package clof

import (
	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/cna"
	"github.com/clof-go/clof/internal/discover"
	"github.com/clof-go/clof/internal/hmcs"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/mcheck"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/shfllock"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// Core lock-interface types (see internal/lockapi).
type (
	// Lock is the uniform spinlock interface every lock here implements.
	Lock = lockapi.Lock
	// Proc is the per-thread processor handle locks operate through.
	Proc = lockapi.Proc
	// Ctx is an opaque per-thread lock context.
	Ctx = lockapi.Ctx
	// Cell is a 64-bit shared atomic slot.
	Cell = lockapi.Cell
	// Order is a memory-order annotation.
	Order = lockapi.Order
)

// Memory orders.
const (
	Relaxed = lockapi.Relaxed
	Acquire = lockapi.Acquire
	Release = lockapi.Release
	AcqRel  = lockapi.AcqRel
	SeqCst  = lockapi.SeqCst
)

// NewNativeProc returns a processor handle for native (goroutine) use; id
// should be the worker's logical CPU for NUMA-aware locks.
func NewNativeProc(id int) *lockapi.NativeProc { return lockapi.NewNativeProc(id) }

// Colocate places cells on one simulated cache line (struct layout).
func Colocate(cells ...*Cell) { lockapi.Colocate(cells...) }

// Topology types and reference platforms (see internal/topo).
type (
	// Machine describes a multi-level NUMA machine.
	Machine = topo.Machine
	// Hierarchy is a hierarchy configuration: machine + chosen levels.
	Hierarchy = topo.Hierarchy
	// Level is a memory-hierarchy level.
	Level = topo.Level
	// Arch is the architecture family (X86 or ArmV8).
	Arch = topo.Arch
)

// Hierarchy levels and architectures.
const (
	Core       = topo.Core
	CacheGroup = topo.CacheGroup
	NUMA       = topo.NUMA
	Package    = topo.Package
	System     = topo.System
	X86        = topo.X86
	ArmV8      = topo.ArmV8
)

// Reference platforms and hierarchy configurations from the paper.
var (
	X86Server     = topo.X86Server
	Armv8Server   = topo.Armv8Server
	X86Hierarchy4 = topo.X86Hierarchy4
	X86Hierarchy3 = topo.X86Hierarchy3
	ArmHierarchy4 = topo.ArmHierarchy4
	ArmHierarchy3 = topo.ArmHierarchy3
	NewHierarchy  = topo.NewHierarchy
	Placement     = topo.Placement
)

// Deep 256–1024-vCPU machines for scaling studies beyond the paper's
// platforms (see docs/TOPOLOGIES.md).
var (
	DeepServer256  = topo.DeepServer256
	DeepServer512  = topo.DeepServer512
	DeepServer1024 = topo.DeepServer1024
	DeepServers    = topo.DeepServers
	DeepHierarchy  = topo.DeepHierarchy
)

// Basic locks (see internal/locks).
type LockType = locks.Type

// BasicLocks returns the paper's default basic-lock set for an architecture
// (Ticket, MCS, CLH, Hemlock with arch-appropriate CTR).
func BasicLocks(a Arch) []LockType { return locks.BasicLocks(a) }

// LockTypeByName resolves "tkt", "mcs", "clh", "hem", "hem-ctr", "tas",
// "ttas" or "bo".
func LockTypeByName(name string) (LockType, bool) { return locks.ByName(name) }

// CLoF composition (see internal/clof).
type (
	// Composition assigns one basic lock per hierarchy level (low→high).
	Composition = clof.Composition
	// CLoFLock is a composed multi-level NUMA-aware lock.
	CLoFLock = clof.Lock
	// Measurement, Point and Selection belong to the scripted benchmark
	// (§4.3).
	Measurement = clof.Measurement
	Point       = clof.Point
	Selection   = clof.Selection
	Policy      = clof.Policy
)

// Selection policies.
const (
	HighContention = clof.HighContention
	LowContention  = clof.LowContention
)

// ParseComposition resolves paper notation like "tkt-clh-tkt-tkt".
func ParseComposition(s string) (Composition, error) { return clof.ParseComposition(s) }

// NewLock composes a CLoF lock over hierarchy h from paper notation.
func NewLock(h *Hierarchy, comp string) (*CLoFLock, error) {
	c, err := clof.ParseComposition(comp)
	if err != nil {
		return nil, err
	}
	return clof.New(h, c)
}

// MustNewLock is NewLock that panics on error.
func MustNewLock(h *Hierarchy, comp string) *CLoFLock {
	l, err := NewLock(h, comp)
	if err != nil {
		panic(err)
	}
	return l
}

// ComposeOption customizes Compose (threshold, TAS fast path).
type ComposeOption = clof.Option

// Compose options.
var (
	// WithThreshold overrides the keep_local threshold H (default 128).
	WithThreshold = clof.WithThreshold
	// WithTASFastPath enables the §6 test-and-set fast path (forfeits
	// strict fairness).
	WithTASFastPath = clof.WithTASFastPath
)

// Compose builds a CLoF lock from an explicit Composition — the entry point
// for user-provided basic locks (see examples/customlock): any LockType
// whose New returns a correct, thread-oblivious spinlock composes.
func Compose(h *Hierarchy, comp Composition, opts ...ComposeOption) (*CLoFLock, error) {
	return clof.New(h, comp, opts...)
}

// Generate enumerates all N^M compositions of basics over `levels` levels.
func Generate(basics []LockType, levels int) []Composition { return clof.Generate(basics, levels) }

// Select applies both selection policies to scripted-benchmark results.
func Select(ms []Measurement) (Selection, error) { return clof.Select(ms) }

// Baseline NUMA-aware locks.

// NewHMCS builds the HMCS⟨n⟩ baseline over a hierarchy configuration.
func NewHMCS(h *Hierarchy) (Lock, error) {
	l, err := hmcs.New(h)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// NewCNA builds the CNA baseline for a machine.
func NewCNA(m *Machine) Lock { return cna.New(m) }

// NewShflLock builds the ShflLock baseline for a machine.
func NewShflLock(m *Machine) Lock { return shfllock.New(m) }

// NewCohortLock builds a classic two-level cohort lock C-<global>-<local>:
// the CLoF composition of local locks at level under a global one.
func NewCohortLock(m *Machine, level Level, global, local LockType) (Lock, error) {
	h, err := topo.NewHierarchy(m, level, topo.System)
	if err != nil {
		return nil, err
	}
	l, err := clof.New(h, clof.Composition{local, global})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Hierarchy discovery (§3.1; see internal/discover).

// DetectHierarchy measures the simulated machine's ping-pong speedups and
// derives a hierarchy configuration. horizon 0 uses the default; threshold
// <= 1 uses the default 1.25.
func DetectHierarchy(m *Machine, horizon int64, threshold float64) (*Hierarchy, error) {
	if horizon == 0 {
		horizon = discover.DefaultHorizon
	}
	return discover.DetectHierarchy(m, horizon, threshold)
}

// Speedups returns the Table 2 cohort speedups for a simulated machine.
func Speedups(m *Machine, horizon int64) map[Level]float64 {
	if horizon == 0 {
		horizon = discover.DefaultHorizon
	}
	return discover.Speedups(m, horizon)
}

// Simulation and workloads (see internal/memsim, internal/workload).
type (
	// SimMachine is the deterministic NUMA machine simulator.
	SimMachine = memsim.Machine
	// SimProc is a simulated virtual CPU (implements Proc).
	SimProc = memsim.Proc
	// SimConfig configures a simulator instance.
	SimConfig = memsim.Config
	// WorkloadConfig parameterizes a simulated lock benchmark.
	WorkloadConfig = workload.Config
	// WorkloadResult is its outcome.
	WorkloadResult = workload.Result
)

// NewSimMachine builds a simulator instance.
func NewSimMachine(cfg SimConfig) *SimMachine { return memsim.New(cfg) }

// RunWorkload runs a simulated contention benchmark with the given lock
// factory.
func RunWorkload(mk func() Lock, cfg WorkloadConfig) (WorkloadResult, error) {
	return workload.Run(workload.LockFactory(mk), cfg)
}

// LevelDBWorkload and KyotoWorkload are the paper's benchmark presets.
var (
	LevelDBWorkload = workload.LevelDB
	KyotoWorkload   = workload.Kyoto
)

// Verification (§4.2; see internal/mcheck).
type (
	// CheckProgram is a finite concurrent program for the model checker.
	CheckProgram = mcheck.Program
	// CheckConfig bounds an exploration.
	CheckConfig = mcheck.Config
	// CheckResult summarizes it.
	CheckResult = mcheck.Result
)

// Memory models for Check.
const (
	ModelSC  = mcheck.SC
	ModelTSO = mcheck.TSO
	ModelWMM = mcheck.WMM
)

// Check exhaustively explores a program's interleavings.
func Check(prog CheckProgram, cfg CheckConfig) CheckResult { return mcheck.Check(prog, cfg) }

// LockCheckProgram builds the canonical verification program for a lock
// factory: `threads` threads, `iters` critical sections each, with mutual
// exclusion, deadlock, termination and data-visibility checks.
func LockCheckProgram(name string, threads, iters int, mk func() Lock) CheckProgram {
	return mcheck.LockProgram(name, threads, iters, mk)
}
