package obs

// This file adds shard-resolved contention attribution for the sharded
// store experiments (internal/store, DESIGN.md S32): one Collector observes
// each shard's lock, and CombineShards folds them into a single Report
// whose Shards block breaks acquisitions down by shard. Shared (reader)
// acquisitions emit no protocol edges (store.Router.Observe documents why),
// so the workload counts them itself and passes them in as SharedOps.
// Optimistic (seqlock-validated) reads never pass through Acquire/Release
// either; their per-shard counters arrive as the router's
// store.OCCShardStats.

import "github.com/clof-go/clof/internal/store"

// ShardStat is one shard's slice of a combined Report.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Acquisitions counts exclusive acquisitions of the shard's lock.
	Acquisitions uint64 `json:"acquisitions"`
	// SharedOps counts workload-reported shared (reader) acquisitions, which
	// emit no observer edges; 0 when the shard lock has no shared mode.
	SharedOps uint64 `json:"shared_ops,omitempty"`
	// OptimisticOps / OCCValidationFailures / OCCFallbacks are the
	// router's optimistic-read counters (store.OCCShardStats); all 0 when the
	// shard lock has no seqlock read path.
	OptimisticOps         uint64 `json:"optimistic_ops,omitempty"`
	OCCValidationFailures uint64 `json:"occ_validation_failures,omitempty"`
	OCCFallbacks          uint64 `json:"occ_fallbacks,omitempty"`
	// AcquireP50NS / HoldP50NS are the shard's median acquire latency and
	// hold time (bucket-resolution upper bounds, like the aggregate's).
	AcquireP50NS int64 `json:"acquire_p50_ns"`
	HoldP50NS    int64 `json:"hold_p50_ns"`
	// Jain is the shard lock's own per-CPU fairness index.
	Jain float64 `json:"jain"`
}

// Merge folds other into h: bucket-wise counts plus exact count/sum/min/max.
func (h *Hist) Merge(other *Hist) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for b := range h.counts {
		h.counts[b] += other.counts[b]
	}
	h.count += other.count
	h.sum += other.sum
}

// CombineShards merges per-shard collectors into one Report labeled lock:
// summed acquisitions and handover levels, merged latency/hold histograms,
// fairness over the summed per-CPU counts, and one ShardStat per collector.
// sharedOps and occOps (each optional, len = number of shards) supply the
// workloads' shared-acquisition and optimistic-read counts. All collectors
// must observe the same machine.
//
// The aggregate's fairness starvation window is the per-CPU maximum across
// shards — a CPU's longest wait on any single shard lock, not across the
// interleaving (a CPU served promptly by shard A while starving on shard B
// still reports B's gap).
func CombineShards(lock string, collectors []*Collector, sharedOps []uint64, occOps []store.OCCShardStats) Report {
	if len(collectors) == 0 {
		return Report{Lock: lock}
	}
	agg := *NewCollector(collectors[0].machine, Options{Lock: lock})
	shards := make([]ShardStat, len(collectors))
	for i, c := range collectors {
		agg.acquisitions += c.acquisitions
		agg.self += c.self // per-shard self-transfers stay self-transfers
		for l := range c.levels {
			agg.levels[l] += c.levels[l]
			agg.maxRun[l] = max(agg.maxRun[l], c.maxRun[l]) // the longest of any shard
		}
		for cpu := range c.perCPU {
			agg.perCPU[cpu] += c.perCPU[cpu]
			if c.starveNS[cpu] > agg.starveNS[cpu] {
				agg.starveNS[cpu] = c.starveNS[cpu]
			}
		}
		agg.acquireLat.Merge(&c.acquireLat)
		agg.holdNS.Merge(&c.holdNS)
		shards[i] = ShardStat{
			Shard:        i,
			Acquisitions: c.acquisitions,
			AcquireP50NS: c.acquireLat.Quantile(0.50),
			HoldP50NS:    c.holdNS.Quantile(0.50),
			Jain:         c.fairness().Jain,
		}
		if i < len(sharedOps) {
			shards[i].SharedOps = sharedOps[i]
		}
		if i < len(occOps) {
			shards[i].OptimisticOps = occOps[i].Optimistic
			shards[i].OCCValidationFailures = occOps[i].ValidationFailures
			shards[i].OCCFallbacks = occOps[i].Fallbacks
		}
	}
	r := agg.Report()
	r.Shards = shards
	return r
}
