// Package bench is the repository benchmark. It measures the lock stack at
// both ends the repository serves — a sharded key-value store running
// natively on goroutines, and lock handover on the simulated Armv8 server —
// and times each layer from outside, by calling public functions and
// wrapping the catalog lock in a timing wrapper the benchmark owns
// (timed.go). bench/README.md lists the workloads, the metrics, and the
// layer each per-layer metric belongs to; cmd/clof-benchmark runs it.
package bench

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"github.com/clof-go/clof/internal/topo"
)

// Workload is one named benchmark input: a closed-loop YCSB-style run of
// the sharded store and a set of simulated lock runs in the same regime.
// Every workload reports every metric, so a workload pairs one native and
// one simulated part.
type Workload struct {
	// Name identifies the workload in BENCHMARK.json, which says why it was
	// chosen.
	Name   string
	native nativeSpec
	sim    simSpec
}

var (
	// ycsbB is read-mostly, Zipfian, on a data set larger than the CPU
	// caches: the OCC read path and engine lookups do the work and the
	// shard locks are nearly idle. Preloading leaves 7 runs per shard; each
	// 1 MiB memtable freezes about once per run, to 8, and none compacts.
	ycsbB = nativeSpec{
		name: "ycsb-b", shards: 16, lock: "seq:tkt", keys: 1_000_000, readPct: 95, zipf: true,
		memtable: 1 << 20, workers: 2, setups: 5, rate: 750_000, reps: 10,
	}
	// ycsbA writes beside reads on few shards of a cache-resident data set:
	// every Put takes the CLoF lock, reads fail validation and retry, and
	// the 256 KiB memtables freeze and compact dozens of times per
	// repetition.
	ycsbA = nativeSpec{
		name: "ycsb-a", shards: 4, lock: "seq:clof:tkt-tkt-tkt-tkt", keys: 10_000, readPct: 50,
		memtable: 256 << 10, workers: 2, setups: 51, rate: 1_100_000, reps: 10,
	}
	// simHC is the paper's high-contention regime: every CPU of the Armv8
	// server contends, so hierarchical handover and the simulator's
	// park/wake path do the work.
	simHC = simSpec{name: "sim-hc", threads: 128, horizon: 200_000_000, seeds: 6, locks: simLocks}
	// simLC fills one cache group: handovers are already local, so it
	// measures the uncontended protocol cost and the simulator's run-ahead
	// path.
	simLC = simSpec{name: "sim-lc", threads: 4, horizon: 200_000_000, seeds: 6, locks: simLocks}
)

// workloads returns the benchmark's workloads in BENCHMARK.json order.
func workloads() []Workload {
	return []Workload{
		{Name: "ycsb-b.sim-lc", native: ycsbB, sim: simLC},
		{Name: "ycsb-a.sim-hc", native: ycsbA, sim: simHC},
	}
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (workloads: %v)", name, names)
}

// Options sets one run.
type Options struct {
	// Seed generates every input: key streams and simulator seeds.
	Seed uint64
	// Seconds sizes the native timed work: Seconds times the workload's
	// nominal request rate, split into equal repetitions (about Seconds of
	// measurement on the 2-CPU reference host). The simulated part runs a
	// fixed virtual horizon.
	Seconds int
	// Trace runs the traced variant: the untraced run, then a traced
	// native phase, reporting the per-layer metrics and keeping spans.
	Trace bool
}

// Run measures w.
func Run(w Workload, o Options) (*Report, error) {
	if o.Seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", o.Seconds)
	}
	ns := w.native
	ns.repOps = ns.rate * o.Seconds / ns.reps
	u, err := runNative(ns, o.Seed, false, false)
	if err != nil {
		return nil, err
	}
	var t *nativeResult
	if o.Trace {
		if t, err = runNative(ns, o.Seed, true, true); err != nil {
			return nil, err
		}
	}
	// The store's garbage is not the simulator's cost: collect it and return
	// its pages now, so no background scavenging shares the simulator's P.
	debug.FreeOSMemory()
	sim, err := runSim(w.sim, o.Seed, o.Trace)
	if err != nil {
		return nil, err
	}
	rep := &Report{Workload: w.Name, Seed: o.Seed, Trace: o.Trace}
	rep.addCounts(u.attempted, u.failed)
	if t != nil {
		rep.addCounts(t.attempted, t.failed)
		rep.spans = append(rep.spans, t.tr.spanSet("native"))
	}
	for _, r := range sim.locks {
		rep.addCounts(r.total+r.deadlocks, r.violations+r.deadlocks)
		if o.Trace {
			rep.spans = append(rep.spans, r.tr.spanSet("sim"))
		}
	}
	mb := &metricBuilder{}
	if o.Trace {
		perLayer(mb, u, t, sim)
	} else {
		endToEnd(mb, u, sim)
	}
	if mb.err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, mb.err)
	}
	rep.Metrics = mb.metrics
	return rep, nil
}

// metricBuilder collects metrics and the first percentile it had to refuse.
type metricBuilder struct {
	metrics []Metric
	err     error
}

func (mb *metricBuilder) add(name, unit string, vals []float64, samples uint64) {
	q1, med, q3 := quartiles(vals)
	mb.metrics = append(mb.metrics, Metric{Name: name, Unit: unit, Value: med, Q1: q1, Q3: q3, N: len(vals), Samples: samples})
}

// one adds a single pooled value.
func (mb *metricBuilder) one(name, unit string, v float64, samples uint64) {
	mb.add(name, unit, []float64{v}, samples)
}

// pct returns h's q-quantile scaled by scale, recording a refusal.
func (mb *metricBuilder) pct(h *hist, q, scale float64) float64 {
	v, err := h.percentile(q)
	if err != nil && mb.err == nil {
		mb.err = err
	}
	return v * scale
}

// perRep adds a metric computed per repetition.
func (mb *metricBuilder) perRep(name, unit string, reps []repResult, f func(*repResult) (float64, uint64)) {
	vals := make([]float64, len(reps))
	var samples uint64
	for i := range reps {
		v, n := f(&reps[i])
		vals[i] = v
		samples += n
	}
	mb.add(name, unit, vals, samples)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func opsPerS(r *repResult) (float64, uint64) { return float64(r.ops) / r.elapsed.Seconds(), r.ops }

// endToEnd adds the metrics a user of the store or the simulator sees.
func endToEnd(mb *metricBuilder, u *nativeResult, sim *simResult) {
	mb.perRep("ops_per_s", "ops/s", u.reps, opsPerS)
	for _, q := range []struct {
		name  string
		q     float64
		reads bool
	}{{"read_p50_us", 0.5, true}, {"read_p99_us", 0.99, true}, {"update_p50_us", 0.5, false}, {"update_p99_us", 0.99, false}} {
		mb.perRep(q.name, "us", u.reps, func(r *repResult) (float64, uint64) {
			h := &r.updates
			if q.reads {
				h = &r.reads
			}
			return mb.pct(h, q.q, 1e-3), h.n
		})
	}
	mb.add("setup_s", "s", u.setupS, uint64(len(u.setupS)))
	var acqs uint64
	for _, r := range sim.locks {
		mb.one("vtput_"+r.lock.label, "iter/vus", r.vtput(), r.total)
		acqs += r.total
	}
	for _, r := range sim.locks {
		h := r.tr.merged(kAcquire)
		mb.one("vacq_p9999_us_"+r.lock.label, "vus", mb.pct(h, 0.9999, 1e-3), h.n)
	}
	mb.add("sim_wall_s", "s", sim.passS, acqs)
}

// perLayer adds the per-layer metrics: histograms from the traced native
// phase t and the simulator tracers, counters from the untraced phase u.
func perLayer(mb *metricBuilder, u, t *nativeResult, sim *simResult) {
	tr := t.tr
	p50 := func(name string, k spanKind) {
		h := tr.merged(k)
		mb.one(name, "ns", mb.pct(h, 0.5, 1), h.n)
	}
	p99 := func(name string, k spanKind) {
		h := tr.merged(k)
		mb.one(name, "ns", mb.pct(h, 0.99, 1), h.n)
	}
	var uOps, tOps uint64
	for _, r := range u.reps {
		uOps += r.ops
	}
	for _, r := range t.reps {
		tOps += r.ops
	}

	p50("store.get_self_ns_p50", kGetSelf)
	p50("store.put_self_ns_p50", kPutSelf)
	mb.one("store.occ_attempts_per_get", "count", ratio(float64(u.occ.Optimistic), float64(u.reads)), u.reads)
	mb.one("store.occ_vfail_frac", "frac", ratio(float64(u.occ.ValidationFailures), float64(u.occ.Optimistic)), u.occ.Optimistic)
	mb.one("store.occ_fallback_frac", "frac", ratio(float64(u.occ.Fallbacks), float64(u.reads)), u.reads)
	p50("seqlock.read_seq_ns_p50", kReadSeq)
	p50("seqlock.validate_ns_p50", kValidate)
	p50("kvstore.get_ns_p50", kKVGet)
	p99("kvstore.get_ns_p99", kKVGet)
	p50("kvstore.put_cs_ns_p50", kKVCS)
	p99("kvstore.put_cs_ns_p99", kKVCS)
	mb.one("kvstore.compactions_per_mput", "count", ratio(float64(u.compactions)*1e6, float64(u.puts)), u.puts)
	mb.one("kvstore.runs_end", "count", float64(u.runsEnd), 1)
	p50("lock.acquire_ns_p50", kAcquire)
	p99("lock.acquire_ns_p99", kAcquire)
	p50("lock.release_ns_p50", kRelease)
	acq := tr.merged(kAcquire).n
	mb.one("lock.acquires_per_op", "count", ratio(float64(acq), float64(tOps)), tOps)
	mb.one("runtime.alloc_bytes_per_op", "B/op", ratio(float64(u.allocBytes), float64(uOps)), uOps)
	mb.one("runtime.gc_cycles", "count", float64(u.gcCycles), uOps)
	mb.one("runtime.gc_pause_ms", "ms", float64(u.gcPauseNs)/1e6, uOps)
	_, uTput, _ := quartiles(repRates(u.reps))
	_, tTput, _ := quartiles(repRates(t.reps))
	mb.one("trace.overhead_frac", "frac", 1-ratio(tTput, uTput), tOps)

	var wall time.Duration
	var events uint64
	for _, r := range sim.locks {
		l := r.lock.label
		for _, s := range []struct {
			name string
			k    spanKind
		}{{"acquire", kAcquire}, {"hold", kHold}, {"release", kRelease}} {
			h := r.tr.merged(s.k)
			mb.one("lock."+l+"."+s.name+"_vns_p50", "vns", mb.pct(h, 0.5, 1), h.n)
		}
		mb.one("lock."+l+".handover_local_frac", "frac", r.handoverLocalFrac(), r.total)
		mb.one("lock."+l+".handover_xpkg", "count", float64(r.levels[topo.System]), r.total)
		mb.one("memsim."+l+".events_per_acq", "count", ratio(float64(r.events), float64(r.total)), r.total)
		mb.one("memsim."+l+".host_ns_per_event", "ns", ratio(float64(r.wall.Nanoseconds()), float64(r.events)), r.events)
		wall += r.wall
		events += r.events
	}
	mb.one("memsim.host_ns_per_event", "ns", ratio(float64(wall.Nanoseconds()), float64(events)), events)
}

func repRates(reps []repResult) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i], _ = opsPerS(&reps[i])
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of vals
// by the exclusive method (Python's statistics.quantiles default); a single
// value is its own quartiles.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
