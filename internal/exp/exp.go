// Package exp is the repository's experiment engine: one declarative,
// parallel, deterministic sweep runner underneath every figure and CLI
// (DESIGN.md S27).
//
// A Spec names a measurement grid — platform, hierarchy, workload, locks or
// compositions, thread counts, repetition count, base seed. The grid points
// are independent jobs: each owns its simulator instance, so a Runner may
// execute them on a bounded worker pool (the CLIs' -j flag). Per-point seeds
// are derived by stable hashing of (spec hash, point key) *before* any job
// is dispatched, so the measured values — and therefore the CSVs assembled
// from them — are byte-for-byte identical at any parallelism level.
//
// Each point yields a typed Result (spec hash, key, seed, throughput and
// fairness stats, wall time); a Manifest persists the results as a
// results.json artifact next to the CSVs.
package exp

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"github.com/clof-go/clof/internal/xrand"
)

// SchemaVersion is the results.json artifact schema version.
const SchemaVersion = 1

// Spec declares one experiment grid. All fields are descriptive inputs —
// the hash over them identifies the experiment configuration in the
// artifact, and seeds every point. Widening a Spec (more locks, more
// threads) keeps the untouched points' hashes only if the declarative
// fields are unchanged; changing any field re-runs the whole grid.
type Spec struct {
	// Name is the experiment identifier, e.g. "fig9b" or "chaos".
	Name string `json:"name"`
	// Platform names the simulated machine ("x86", "armv8", "biglittle").
	Platform string `json:"platform,omitempty"`
	// Hierarchy names the hierarchy configuration, when one applies.
	Hierarchy string `json:"hierarchy,omitempty"`
	// Workload names the driving workload ("leveldb", "kyoto", ...).
	Workload string `json:"workload,omitempty"`
	// Locks lists the catalog locks / compositions swept, for provenance.
	Locks []string `json:"locks,omitempty"`
	// Threads is the contention grid.
	Threads []int `json:"threads,omitempty"`
	// Runs is the per-point repetition count (median reported); 0 = 1.
	Runs int `json:"runs,omitempty"`
	// Seed is the experiment's base seed; every point seed derives from it.
	Seed uint64 `json:"seed,omitempty"`
	// Quick marks reduced-grid smoke configurations.
	Quick bool `json:"quick,omitempty"`
	// Notes carries free-form provenance (fault plans, pinning policy...).
	Notes string `json:"notes,omitempty"`
}

// Hash returns the spec's stable identity: FNV-1a/64 over the canonical
// JSON encoding, in hex. Two specs hash equal iff every declarative field
// matches.
func (s Spec) Hash() string {
	return fmt.Sprintf("%016x", s.hash64())
}

func (s Spec) hash64() uint64 {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec contains only marshalable fields; keep the signature clean.
		panic("exp: spec not marshalable: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// PointSeed derives the deterministic base seed of one grid point. It mixes
// the spec hash (which covers Spec.Seed) with a hash of the point key, then
// whitens through one SplitMix64 step — execution order never enters.
func PointSeed(s Spec, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return xrand.New(s.hash64() ^ h.Sum64()).Uint64()
}

// Sample is one run's raw measurement at one grid point.
type Sample struct {
	// Throughput in operations per microsecond (the paper's y-axis).
	Throughput float64 `json:"tput"`
	// Jain is the per-thread fairness index of the run.
	Jain float64 `json:"jain,omitempty"`
	// Total is the completed-iteration count.
	Total uint64 `json:"total,omitempty"`
	// Metrics carries experiment-specific scalars (robustness counters,
	// handover gaps, ...); keys must be stable across runs.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Err is a non-empty string when the run failed (deadlock, or a
	// mutual-exclusion violation). Failed runs contribute zero throughput:
	// the sweep reports them and goes on, and clof-figures exits nonzero
	// once its output is written.
	Err string `json:"err,omitempty"`
	// Obs optionally carries an internal/obs Report as raw JSON. The engine
	// treats it as opaque: the first run's block is copied onto the point's
	// Result verbatim, so observability data rides the manifest without the
	// engine depending on the obs package (or changing any existing
	// artifact byte when absent).
	Obs json.RawMessage `json:"obs,omitempty"`
}

// Point is one independent grid job: a stable key (unique within its spec)
// and the measurement closure. Run must be safe to call concurrently with
// other points' Run functions — each call owns its simulator.
type Point struct {
	Key string
	Run func(seed uint64) Sample
}

// Result is the persisted record of one measured point.
type Result struct {
	Spec     string `json:"spec"`
	SpecHash string `json:"spec_hash"`
	Key      string `json:"key"`
	Seed     uint64 `json:"seed"`
	Runs     int    `json:"runs"`
	// Tput / Jain summarize the per-run samples.
	Tput Stats `json:"tput"`
	Jain Stats `json:"jain"`
	// Total is the median completed-iteration count.
	Total uint64 `json:"total,omitempty"`
	// Metrics holds the medians of the samples' metric scalars.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Errors lists failed runs' messages (empty on success).
	Errors []string `json:"errors,omitempty"`
	// Obs is the first run's observability block (exp.Sample.Obs), opaque
	// to the engine; empty when the point was measured without observation.
	Obs json.RawMessage `json:"obs,omitempty"`
	// WallMS is the host wall time spent measuring this point (all runs).
	// It is the one nondeterministic field; nothing derived from a Result
	// may depend on it.
	WallMS float64 `json:"wall_ms"`
}

// Throughput returns the point's reported value: the median over runs.
func (r Result) Throughput() float64 { return r.Tput.Median }

// Runner executes a spec's points on a bounded worker pool.
type Runner struct {
	// Jobs is the pool width; <= 0 means GOMAXPROCS.
	Jobs int
	// Manifest, when non-nil, receives every result (artifact).
	Manifest *Manifest
	// Progress, if non-nil, receives one line per completed point. Calls
	// are serialized by the runner.
	Progress func(string)
}

// Run measures every point of the spec and returns the results in point
// order. Output is independent of Jobs: seeds are derived before dispatch
// and each point's simulator is isolated, so only wall time changes with
// parallelism.
func (r *Runner) Run(spec Spec, points []Point) []Result {
	jobs := r.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	runs := spec.Runs
	if runs <= 0 {
		runs = 1
	}
	specHash := spec.Hash()
	if r.Manifest != nil {
		r.Manifest.AddSpec(spec)
	}

	out := make([]Result, len(points))
	var mu sync.Mutex
	done := 0
	report := func(key string) {
		if r.Progress == nil {
			return
		}
		mu.Lock()
		done++
		r.Progress(fmt.Sprintf("%s: %s (%d/%d)", spec.Name, key, done, len(points)))
		mu.Unlock()
	}

	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				out[i] = r.measure(spec, specHash, points[i], runs)
				report(points[i].Key)
			}
		}()
	}
	for i := range points {
		ch <- i
	}
	close(ch)
	wg.Wait()

	if r.Manifest != nil {
		for _, res := range out {
			r.Manifest.Add(res)
		}
	}
	return out
}

// measure executes all runs of one point and summarizes them.
func (r *Runner) measure(spec Spec, specHash string, p Point, runs int) Result {
	base := PointSeed(spec, p.Key)
	start := time.Now()
	res := Result{
		Spec:     spec.Name,
		SpecHash: specHash,
		Key:      p.Key,
		Seed:     base,
		Runs:     runs,
	}
	seeds := xrand.New(base)
	tputs := make([]float64, 0, runs)
	jains := make([]float64, 0, runs)
	totals := make([]float64, 0, runs)
	metricAcc := map[string][]float64{}
	for k := 0; k < runs; k++ {
		s := p.Run(seeds.Uint64())
		if s.Err != "" {
			res.Errors = append(res.Errors, s.Err)
		}
		tputs = append(tputs, s.Throughput)
		jains = append(jains, s.Jain)
		totals = append(totals, float64(s.Total))
		for name, v := range s.Metrics {
			metricAcc[name] = append(metricAcc[name], v)
		}
		if res.Obs == nil && s.Obs != nil {
			res.Obs = s.Obs
		}
	}
	res.Tput = Summarize(tputs)
	res.Jain = Summarize(jains)
	res.Total = uint64(Median(totals))
	if len(metricAcc) > 0 {
		res.Metrics = make(map[string]float64, len(metricAcc))
		for name, vs := range metricAcc {
			res.Metrics[name] = Median(vs)
		}
	}
	res.WallMS = float64(time.Since(start)) / 1e6
	return res
}
