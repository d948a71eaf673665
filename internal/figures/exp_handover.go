package figures

import (
	"encoding/json"

	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/obs"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// measureObs is measure with the observability layer attached: the run is
// watched by an obs.Collector, whose report rides the sample both as the
// opaque results.json "obs" block and as handover-share metrics the figure
// reads back. Observation does not perturb the schedule, so throughput
// matches an unobserved run of the same seed.
func measureObs(name string, mk workload.LockFactory, cfg workload.Config) exp.Sample {
	col := obs.NewCollector(cfg.Machine, obs.Options{Lock: name})
	cfg.Observer = col
	s := sample(workload.Run(mk, cfg))
	if s.Err != "" {
		return s
	}
	rep := col.Report()
	raw, err := json.Marshal(rep)
	if err != nil {
		return exp.Sample{Err: err.Error()}
	}
	s.Obs = raw
	s.Metrics = map[string]float64{}
	denom := float64(rep.Handover.Self + rep.Handover.Crossings)
	if denom > 0 {
		s.Metrics["handover_self_pct"] = 100 * float64(rep.Handover.Self) / denom
		for _, lc := range rep.Handover.Levels {
			s.Metrics["handover_"+lc.Level+"_pct"] = 100 * float64(lc.Count) / denom
		}
	}
	return s
}

// Handover is the observability figure: the handover-distance mix versus
// thread count, contrasting a NUMA-oblivious queue lock (MCS) with the
// paper's x86 LC-best CLoF composition. MCS hands the lock to whoever is
// next in global FIFO order, so its mix follows the thread placement; CLoF's
// keep_local policy converts most transfers into core/cache-group passes —
// the locality that Figs. 2–4's throughput gap comes from, here made
// directly visible. Shares are percentages of all owner transitions.
func Handover(o Options) *Figure {
	p := X86()
	grid := o.grid(p)
	f := &Figure{
		ID:     "handover",
		Title:  "handover-distance mix vs threads (mcs vs clof:" + PaperLC4X86 + ", x86, % of transfers)",
		XLabel: "threads",
		YLabel: "share-pct",
	}
	entries := []lockEntry{
		{"mcs", basicFactory("mcs")},
		{"clof", clofFactory(p.H4, PaperLC4X86)},
	}
	spec := exp.Spec{
		Name: f.ID, Platform: "x86", Workload: "leveldb",
		Threads: grid, Runs: o.Runs, Quick: o.Quick,
		Locks: []string{"mcs", "clof:" + PaperLC4X86},
		Notes: "handover-distance shares from the internal/obs collector; obs reports in results.json",
	}
	res := o.sweep(spec, lockRows([]string{entries[0].name, entries[1].name}), "threads", grid, func(row, n int, seed uint64) exp.Sample {
		cfg := o.adjust(workload.LevelDB(p.Machine, n))
		cfg.Seed = seed
		return measureObs(entries[row].name, entries[row].mk, cfg)
	})

	// One series per (lock, distance): self plus every hierarchy level.
	distances := []string{"self"}
	for l := topo.Core; l <= topo.System; l++ {
		distances = append(distances, l.String())
	}
	for i, e := range entries {
		for _, d := range distances {
			share := func(r exp.Result) float64 { return r.Metrics["handover_"+d+"_pct"] }
			f.Series = append(f.Series, series(e.name+":"+d, grid, res[i], share))
		}
	}
	return f
}
