// Package obs is the lock observability layer (DESIGN.md S29): it turns the
// simulator's raw event streams into per-lock-site contention statistics.
//
// Two complementary inputs feed a Collector:
//
//   - lock-protocol edges (lockapi.Observer): acquire-start, acquired,
//     released — reported around the lock calls by the driver that makes
//     them (workload.Run, or store.Router per shard via Router.Observe).
//     Edges yield acquisition-latency and hold-time histograms, the
//     handover-distance breakdown by hierarchy level, and per-CPU fairness
//     (Jain index, max-starvation window).
//   - memory-operation trace events (memsim.TraceEvent via TraceFunc):
//     cache-line traffic counters keyed by cell.
//
// The Collector is attachment-free by construction: locks carry no
// observer code, and an unobserved driver costs one nil check per edge and
// nothing else. When attached, callbacks never issue Proc memory
// operations, so observation does not perturb virtual time — an observed
// run completes the same iterations at the same instants as an unobserved
// one.
//
// Results are exposed three ways: a Report struct (serialized into
// results.json manifests as an additive "obs" block), the cmd/clof-obs CLI
// (per-level handover tables), and a Perfetto/Chrome-trace JSON export
// (WriteTraceJSON) with one track per virtual CPU and flow arrows for
// cross-CPU handovers.
package obs

import (
	"sort"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/topo"
)

// numLevels mirrors topo's level count (Core..System).
const numLevels = int(topo.System) + 1

// Options configures a Collector.
type Options struct {
	// Lock labels the report (e.g. the catalog lock name).
	Lock string
	// Spans retains one wait/hold span pair per acquisition plus handover
	// flow records, enabling WriteTraceJSON. Off by default: a long run
	// holds millions of acquisitions.
	Spans bool
}

// Span is one rendered interval on a virtual CPU's track: the wait between
// acquire-start and acquired, or the hold between acquired and released.
type Span struct {
	// CPU is the track (virtual CPU number).
	CPU int
	// Name is "wait" or "hold".
	Name string
	// StartNS / EndNS bound the interval in virtual nanoseconds.
	StartNS, EndNS int64
	// Seq is the global acquisition sequence number the span belongs to.
	Seq uint64
}

// Flow is one cross-CPU handover arrow: from the previous owner's release
// instant to the next owner's acquired instant.
type Flow struct {
	// ID is the acquisition sequence number at the arrow head.
	ID uint64
	// FromCPU / FromNS locate the releasing end.
	FromCPU int
	FromNS  int64
	// ToCPU / ToNS locate the acquiring end.
	ToCPU int
	ToNS  int64
}

// cellTraffic accumulates trace-event statistics for one cell.
type cellTraffic struct {
	idx  int // first-seen order, for stable report output
	ops  uint64
	cost int64
	byOp map[string]uint64
}

// Collector consumes lock-protocol edges (as a lockapi.Observer) and,
// optionally, memsim trace events (via TraceFunc), and summarizes them as a
// Report. One Collector observes one lock instance over one run; it is not
// safe for concurrent use outside the simulator's deterministic scheduling.
type Collector struct {
	machine *topo.Machine
	opt     Options
	namer   *Namer

	// Per-CPU edge state: virtual-ns timestamps, -1 = none in flight.
	startNS   []int64 // acquire-start of the in-flight acquisition
	acqNS     []int64 // acquired instant of the current hold
	lastAcqNS []int64 // previous acquired instant (starvation windows)
	starveNS  []int64 // longest observed gap between acquisitions
	perCPU    []uint64

	acquireLat Hist
	holdNS     Hist

	acquisitions  uint64
	self          uint64
	levels        [numLevels]uint64
	run, maxRun   [numLevels]uint64 // consecutive same-cohort acquisitions
	lastOwner     int
	lastReleaseNS int64
	seq           uint64

	spans   []Span
	flows   []Flow
	traffic map[*lockapi.Cell]*cellTraffic
}

// NewCollector returns a Collector for a run on machine m.
func NewCollector(m *topo.Machine, o Options) *Collector {
	n := m.NumCPUs()
	c := &Collector{
		machine:       m,
		opt:           o,
		namer:         NewNamer(),
		startNS:       make([]int64, n),
		acqNS:         make([]int64, n),
		lastAcqNS:     make([]int64, n),
		starveNS:      make([]int64, n),
		perCPU:        make([]uint64, n),
		lastOwner:     -1,
		lastReleaseNS: -1,
		traffic:       map[*lockapi.Cell]*cellTraffic{},
	}
	for i := 0; i < n; i++ {
		c.startNS[i] = -1
		c.acqNS[i] = -1
		c.lastAcqNS[i] = -1
	}
	return c
}

// timeOf extracts virtual time from backends that expose it (memsim.Proc
// does); -1 means the backend keeps no clock and time-derived statistics
// are skipped.
func timeOf(p lockapi.Proc) int64 {
	if t, ok := p.(interface{ Time() int64 }); ok {
		return t.Time()
	}
	return -1
}

// AcquireStart implements lockapi.Observer.
func (c *Collector) AcquireStart(p lockapi.Proc) {
	c.startNS[p.ID()] = timeOf(p)
}

// Acquired implements lockapi.Observer: the bulk of the accounting happens
// here — latency, handover distance, fairness windows, and flow arrows.
func (c *Collector) Acquired(p lockapi.Proc) {
	cpu := p.ID()
	now := timeOf(p)
	c.acquisitions++
	c.perCPU[cpu]++
	if s := c.startNS[cpu]; s >= 0 && now >= s {
		c.acquireLat.Record(now - s)
		if c.opt.Spans {
			c.spans = append(c.spans, Span{CPU: cpu, Name: "wait", StartNS: s, EndNS: now, Seq: c.seq})
		}
	}
	// Owners sharing a cohort at level share also share one at every level
	// above it; the runs below it restart. Before the first owner every run
	// restarts.
	share := numLevels
	if c.lastOwner >= 0 {
		if c.lastOwner == cpu {
			c.self++
			share = int(topo.Core)
		} else {
			level := c.machine.ShareLevel(c.lastOwner, cpu)
			c.levels[level]++
			share = int(level)
			if c.opt.Spans && now >= 0 && c.lastReleaseNS >= 0 {
				c.flows = append(c.flows, Flow{
					ID:      c.seq,
					FromCPU: c.lastOwner, FromNS: c.lastReleaseNS,
					ToCPU: cpu, ToNS: now,
				})
			}
		}
	}
	for l := range c.run {
		if l < share {
			c.run[l] = 0
		}
		c.run[l]++
		c.maxRun[l] = max(c.maxRun[l], c.run[l])
	}
	if prev := c.lastAcqNS[cpu]; prev >= 0 && now > prev && now-prev > c.starveNS[cpu] {
		c.starveNS[cpu] = now - prev
	}
	c.lastAcqNS[cpu] = now
	c.lastOwner = cpu
	c.acqNS[cpu] = now
	c.seq++
}

// Released implements lockapi.Observer.
func (c *Collector) Released(p lockapi.Proc) {
	cpu := p.ID()
	now := timeOf(p)
	if a := c.acqNS[cpu]; a >= 0 && now >= a {
		c.holdNS.Record(now - a)
		if c.opt.Spans {
			// seq-1: the hold closes the acquisition Acquired just numbered.
			c.spans = append(c.spans, Span{CPU: cpu, Name: "hold", StartNS: a, EndNS: now, Seq: c.seq - 1})
		}
	}
	c.lastReleaseNS = now
	c.acqNS[cpu] = -1
	c.startNS[cpu] = -1
}

// TraceFunc returns a memsim.Config.Trace callback that feeds the per-cell
// traffic counters. Events without a cell (preempt, the only one) are
// ignored.
func (c *Collector) TraceFunc() func(memsim.TraceEvent) {
	return func(ev memsim.TraceEvent) {
		if ev.Cell == nil {
			return
		}
		t := c.traffic[ev.Cell]
		if t == nil {
			t = &cellTraffic{idx: len(c.traffic), byOp: map[string]uint64{}}
			c.traffic[ev.Cell] = t
			c.namer.Name(ev.Cell) // pin the display name in first-seen order
		}
		t.ops++
		t.cost += ev.Cost
		t.byOp[ev.Op]++
	}
}

// Namer returns the collector's cell namer (shared with TraceFunc), so a
// caller printing a live trace and collecting traffic uses one namespace.
func (c *Collector) Namer() *Namer { return c.namer }

// Report is the serializable summary of one observed run. It lands in
// results.json manifests as the additive "obs" block.
type Report struct {
	// Lock is the observed lock's label (Options.Lock).
	Lock string `json:"lock,omitempty"`
	// Machine names the simulated platform.
	Machine string `json:"machine,omitempty"`
	// Acquisitions counts acquired edges (= successful lock acquisitions).
	Acquisitions uint64 `json:"acquisitions"`
	// AcquireLatency is the acquire-start→acquired latency histogram.
	AcquireLatency HistSummary `json:"acquire_latency_ns"`
	// Hold is the acquired→released hold-time histogram.
	Hold HistSummary `json:"hold_ns"`
	// Handover breaks down consecutive-owner transitions by distance.
	Handover Handover `json:"handover"`
	// Fairness summarizes the per-CPU acquisition split.
	Fairness Fairness `json:"fairness"`
	// Traffic lists per-cell memory-operation counts (needs TraceFunc).
	Traffic []CellTraffic `json:"traffic,omitempty"`
	// Shards breaks acquisitions down by shard when the report aggregates a
	// sharded store's per-shard collectors (CombineShards); nil otherwise.
	Shards []ShardStat `json:"shards,omitempty"`
}

// Handover is the handover-distance breakdown: every acquisition after the
// first is either a self-transfer (same CPU re-acquires) or a cross-CPU
// handover binned by the sharing level of the two owners. The invariant
// Self + ΣLevels + min(Acquisitions,1) == Acquisitions always holds.
type Handover struct {
	// Self counts same-CPU back-to-back acquisitions.
	Self uint64 `json:"self"`
	// Levels has one entry per hierarchy level, Core..System, in order.
	Levels []LevelCount `json:"levels"`
	// Crossings is the total of the level counts (cross-CPU handovers).
	Crossings uint64 `json:"crossings"`
}

// LevelCount is one level's handover count and longest tenure.
type LevelCount struct {
	// Level is the topo level name ("core", "cache-group", ...).
	Level string `json:"level"`
	// Count is the number of handovers crossing exactly this level.
	Count uint64 `json:"count"`
	// MaxRun is the longest run of consecutive acquisitions whose owners
	// share one cohort at this level: the longest tenure of any cohort of
	// this level. It never decreases from Core to System, and for one lock
	// System's equals Acquisitions; a CombineShards report takes the
	// longest over its shards.
	MaxRun uint64 `json:"max_run"`
}

// Fairness summarizes how evenly the lock served its CPUs.
type Fairness struct {
	// Jain is Jain's fairness index of per-CPU acquisition counts over the
	// CPUs that acquired at least once (1.0 = perfectly even).
	Jain float64 `json:"jain"`
	// MaxStarvationNS is the longest virtual-time window any single CPU
	// waited between two consecutive acquisitions of its own.
	MaxStarvationNS int64 `json:"max_starvation_ns"`
	// StarvedCPU is the CPU that suffered MaxStarvationNS (-1 if none).
	StarvedCPU int `json:"starved_cpu"`
	// PerCPU lists acquisition counts for CPUs with at least one.
	PerCPU []CPUShare `json:"per_cpu,omitempty"`
}

// CPUShare is one CPU's slice of the acquisitions.
type CPUShare struct {
	// CPU is the virtual CPU number.
	CPU int `json:"cpu"`
	// Acquisitions is how many times this CPU won the lock.
	Acquisitions uint64 `json:"acquisitions"`
	// MaxGapNS is this CPU's longest wait between consecutive wins.
	MaxGapNS int64 `json:"max_gap_ns,omitempty"`
}

// CellTraffic is one cell's memory-operation totals, in first-seen order.
type CellTraffic struct {
	// Cell is the display name assigned by the collector's Namer.
	Cell string `json:"cell"`
	// Ops is the total committed operations touching the cell.
	Ops uint64 `json:"ops"`
	// CostNS is the summed charged latency.
	CostNS int64 `json:"cost_ns"`
	// ByOp splits Ops by operation kind ("load", "store", "cas", ...).
	ByOp map[string]uint64 `json:"by_op"`
}

// Report summarizes everything collected so far. It may be called mid-run
// (statistics to date) or after memsim's Run returns (the full run).
func (c *Collector) Report() Report {
	r := Report{
		Lock:           c.opt.Lock,
		Machine:        c.machine.Name,
		Acquisitions:   c.acquisitions,
		AcquireLatency: c.acquireLat.Summary(),
		Hold:           c.holdNS.Summary(),
	}
	r.Handover.Self = c.self
	r.Handover.Levels = make([]LevelCount, numLevels)
	for i := 0; i < numLevels; i++ {
		r.Handover.Levels[i] = LevelCount{Level: topo.Level(i).String(), Count: c.levels[i], MaxRun: c.maxRun[i]}
		r.Handover.Crossings += c.levels[i]
	}
	r.Fairness = c.fairness()
	r.Traffic = c.trafficReport()
	return r
}

// fairness computes the Jain index and starvation windows over active CPUs.
func (c *Collector) fairness() Fairness {
	f := Fairness{StarvedCPU: -1}
	var sum, sq float64
	n := 0
	for cpu, count := range c.perCPU {
		if count == 0 {
			continue
		}
		n++
		sum += float64(count)
		sq += float64(count) * float64(count)
		f.PerCPU = append(f.PerCPU, CPUShare{CPU: cpu, Acquisitions: count, MaxGapNS: c.starveNS[cpu]})
		if c.starveNS[cpu] > f.MaxStarvationNS {
			f.MaxStarvationNS = c.starveNS[cpu]
			f.StarvedCPU = cpu
		}
	}
	if sq > 0 {
		f.Jain = sum * sum / (float64(n) * sq)
	}
	return f
}

// trafficReport orders the per-cell counters by first observation.
func (c *Collector) trafficReport() []CellTraffic {
	if len(c.traffic) == 0 {
		return nil
	}
	type entry struct {
		idx int
		ct  CellTraffic
	}
	entries := make([]entry, 0, len(c.traffic))
	for cell, t := range c.traffic {
		entries = append(entries, entry{idx: t.idx, ct: CellTraffic{Cell: c.namer.Name(cell), Ops: t.ops, CostNS: t.cost, ByOp: t.byOp}})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].idx < entries[j].idx })
	out := make([]CellTraffic, len(entries))
	for i, e := range entries {
		out[i] = e.ct
	}
	return out
}

// Spans returns the retained spans (empty unless Options.Spans).
func (c *Collector) Spans() []Span { return c.spans }

// Flows returns the retained handover arrows (empty unless Options.Spans).
func (c *Collector) Flows() []Flow { return c.flows }

var _ lockapi.Observer = (*Collector)(nil)
