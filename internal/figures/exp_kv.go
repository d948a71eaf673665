package figures

import (
	"encoding/json"
	"fmt"

	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/obs"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// Geometry of the sharded-serving experiment, shared with its tests.
const (
	// kvHorizonNS is the virtual run length. Two milliseconds at ~3µs per
	// iteration gives every grid point hundreds of completed operations per
	// thread, enough to resolve the shard-scaling shapes.
	kvHorizonNS = 2_000_000
	// KVThreads is the fixed serving thread count: enough contention that a
	// single global lock is the bottleneck, well under either platform's
	// hardware thread count so placement stays dense.
	KVThreads = 32
)

// KVShards is the shard grid — the x-axis of every kv figure. 1 shard is the
// pre-refactor engine: one global lock.
var KVShards = []int{1, 2, 4, 8, 16}

// KVPessimisticLocks names the catalog entries whose every read takes a shard
// lock (exclusive or shared): the plain spinlock baselines, the reader-writer
// lock (shared fast path for the read-heavy mixes), the full CLoF
// composition, and the concurrency-restricted ticket lock. The optimistic
// acceptance criterion (TestKVQuick) quantifies over exactly this list.
var KVPessimisticLocks = []string{"tkt", "mcs", "rwlock", "clof:tkt-tkt-tkt-tkt", "cr:tkt"}

// KVSeqLocks names the seq: family entries swept alongside them: readers
// validate a version word instead of acquiring, so the read path performs no
// atomic read-modify-write at all (DESIGN.md S33).
var KVSeqLocks = []string{"seq:tkt", "seq:clof:tkt-tkt-tkt-tkt"}

// KVLocks is the full lock sweep of every kv figure.
var KVLocks = append(append([]string{}, KVPessimisticLocks...), KVSeqLocks...)

// KV measures the sharded serving engine (internal/store, DESIGN.md S32) on
// the simulator: one figure per YCSB-style mix, throughput over shard count
// for each lock family, at a fixed KVThreads serving threads on the x86
// platform — plus the read-mostly mix repeated on the Armv8 platform, the
// figure the optimistic-read acceptance criterion quantifies over on both
// modeled architectures. Keys are drawn Zipfian (theta 0.99, hot ranks
// hash-scattered as in YCSB) and routed by hash partition, except the scan
// mix, which runs range-partitioned so merged scans visit consecutive shards
// the way the native store's range router does. Every point attaches a
// shard-resolved obs report (obs.CombineShards) to its manifest record, so
// results.json carries per-shard acquisition counts, hold times, OCC
// retry/fallback tallies, and fairness alongside the curves. The headline
// notes — and TestKVQuick's assertions — are the acceptance criteria: sharded
// rwlock beats the single global lock on the read-mostly mix, and the
// optimistic seq: rows beat every pessimistic lock there, rwlock included.
func KV(o Options) []*Figure {
	var figs []*Figure
	for _, mix := range store.Mixes() {
		figs = append(figs, kvFigure(o, topo.X86Server(), "x86", "", mix))
	}
	figs = append(figs, kvFigure(o, topo.Armv8Server(), "armv8", "-armv8", store.ReadMostly))
	return figs
}

// kvFigure runs one mix on one platform. idSuffix distinguishes the non-x86
// repeats ("" for the x86 panels, "-armv8" for the Kunpeng read-mostly one).
func kvFigure(o Options, mach *topo.Machine, platform, idSuffix string, mix store.Mix) *Figure {
	grid := KVShards
	horizon := int64(kvHorizonNS)
	if o.Quick {
		grid = []int{1, 4, 16}
		horizon /= 2
	}

	dist, rangePart := store.DistZipfian, false
	if mix.ScanPct > 0 {
		dist, rangePart = store.DistUniform, true
	}
	f := &Figure{
		ID: "kv-" + mix.Name + idSuffix,
		Title: fmt.Sprintf("sharded serving on %s, mix %s (%s keys, %d threads)",
			mach.Name, mix.Name, dist, KVThreads),
		XLabel: "shards",
		YLabel: "iter/us",
	}
	spec := exp.Spec{
		Name: f.ID, Platform: platform, Workload: "kv",
		Threads: []int{KVThreads}, Runs: o.Runs, Quick: o.Quick,
		Locks: KVLocks,
		Notes: fmt.Sprintf("shard grid %v; dist=%s range=%v; horizon=%dns; keys=%d",
			grid, dist, rangePart, horizon, workload.KVKeys),
	}
	entries := lookupAll(KVLocks)
	results := o.sweep(spec, lockRows(KVLocks), "shards", grid, func(row, shards int, seed uint64) exp.Sample {
		e := entries[row]
		collectors := make([]*obs.Collector, shards)
		for i := range collectors {
			collectors[i] = obs.NewCollector(mach, obs.Options{})
		}
		res, err := workload.RunKV(workload.KVConfig{
			Machine: mach, Threads: KVThreads, Shards: shards,
			NewShardLock:   func() lockapi.Lock { return e.New(mach) },
			Horizon:        horizon,
			Mix:            mix,
			Dist:           dist,
			RangePartition: rangePart,
			Seed:           seed,
			Observer:       func(i int) lockapi.Observer { return collectors[i] },
		})
		smp := KVSample(res, err)
		if err != nil {
			return smp
		}
		raw, err := json.Marshal(obs.CombineShards(e.Name, collectors, res.SharedPerShard, res.OCC))
		if err != nil {
			return exp.Sample{Err: err.Error()}
		}
		smp.Metrics = kvMetrics(res)
		smp.Obs = raw
		return smp
	})

	violations := 0.0
	for i, name := range KVLocks {
		f.Series = append(f.Series, series(name, grid, results[i], exp.Result.Throughput))
		for _, r := range results[i] {
			violations += r.Metrics["violations"]
		}
	}
	f.Notes = append(f.Notes, kvNotes(f, grid, violations)...)
	return f
}

// KVSample converts one serving run into an engine sample, as sample does
// for a LevelDB run: a run that deadlocked (err) or broke an invariant — an
// exclusion violation, a shared-mode violation or a torn optimistic read —
// is a failed run. exp.Sample.Err is set and the point reports zero
// throughput, so it can neither score in a scripted sweep nor pass a
// figure unnoticed.
func KVSample(res workload.KVResult, err error) exp.Sample {
	if err != nil {
		return exp.Sample{Err: err.Error()}
	}
	if res.ExclusionViolations+res.SharedViolations+res.TornReads > 0 {
		return exp.Sample{Err: fmt.Sprintf("%d mutual-exclusion violations, %d shared-mode violations, %d torn reads",
			res.ExclusionViolations, res.SharedViolations, res.TornReads)}
	}
	return exp.Sample{Throughput: res.ThroughputOpsPerUs(), Jain: res.Jain(), Total: res.Total}
}

// kvMetrics extracts the per-point scalars recorded in the manifest: the
// invariant tally (exclusion and shared-mode violations plus torn optimistic
// reads certified by a passing validation — all must be 0), the shared-mode
// share of all shard acquisitions, the hot shard's fraction of them
// (attribution skew; 1/shards would be a perfectly even split), and — for the
// seq: rows — the optimistic-read volume with its validation-failure and
// pessimistic-fallback tallies.
func kvMetrics(res workload.KVResult) map[string]float64 {
	var acq, shared, hot uint64
	for i, c := range res.PerShard {
		acq += c
		shared += res.SharedPerShard[i]
		if c > hot {
			hot = c
		}
	}
	var opt, vfail, fall uint64
	for _, st := range res.OCC {
		opt += st.Optimistic
		vfail += st.ValidationFailures
		fall += st.Fallbacks
	}
	m := map[string]float64{
		"violations": float64(res.ExclusionViolations + res.SharedViolations + res.TornReads),
	}
	if acq > 0 {
		m["shared_frac"] = float64(shared) / float64(acq)
		m["hot_shard_frac"] = float64(hot) / float64(acq)
	}
	if opt > 0 {
		m["occ_optimistic"] = float64(opt)
		m["occ_vfail_frac"] = float64(vfail) / float64(opt)
		m["occ_fallbacks"] = float64(fall)
	}
	return m
}

// KVSpeedup returns f's throughput ratio of lock at the grid's largest shard
// count over the single-shard (global lock) baseline series — the "what did
// sharding buy" measure. Zero when either series is absent or degenerate.
func KVSpeedup(f *Figure, lock, baseline string, grid []int) float64 {
	s, ok1 := f.Get(lock)
	b, ok2 := f.Get(baseline)
	if !ok1 || !ok2 {
		return 0
	}
	max := grid[len(grid)-1]
	if b.At(1) == 0 {
		return 0
	}
	return s.At(max) / b.At(1)
}

// KVRatioAt returns f's throughput ratio of lock a over lock b at the given
// shard count — the same-geometry comparison the optimistic-read criterion
// uses (seq: row over each pessimistic row at the grid maximum). Zero when
// either series is absent or b is degenerate there.
func KVRatioAt(f *Figure, a, b string, shards int) float64 {
	sa, ok1 := f.Get(a)
	sb, ok2 := f.Get(b)
	if !ok1 || !ok2 || sb.At(shards) == 0 {
		return 0
	}
	return sa.At(shards) / sb.At(shards)
}

// kvNotes derives the figure's observations: each lock's scaling from 1 shard
// to the grid maximum, the two acceptance-criterion headlines (sharded rwlock
// vs the 1-shard tkt global lock; the optimistic seq:tkt row vs the best-case
// pessimistic reader, rwlock, at equal shards), and the invariant tally.
func kvNotes(f *Figure, grid []int, violations float64) []string {
	max := grid[len(grid)-1]
	var notes []string
	for _, s := range f.Series {
		scale := 0.0
		if s.At(1) > 0 {
			scale = s.At(max) / s.At(1)
		}
		notes = append(notes, fmt.Sprintf("%s: %.4f at 1 shard, %.4f at %d shards (%.2fx)",
			s.Name, s.At(1), s.At(max), max, scale))
	}
	notes = append(notes, fmt.Sprintf(
		"sharded rwlock (%d shards) vs single global tkt lock: %.2fx",
		max, KVSpeedup(f, "rwlock", "tkt", grid)))
	notes = append(notes, fmt.Sprintf(
		"optimistic seq:tkt vs sharded rwlock at %d shards: %.2fx",
		max, KVRatioAt(f, "seq:tkt", "rwlock", max)))
	notes = append(notes, fmt.Sprintf("exclusion/shared/torn violations across the sweep: %.0f", violations))
	return notes
}
