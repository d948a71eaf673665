package figures

import (
	"fmt"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// Fig2 reproduces the x86 LevelDB comparison of HMCS configurations and
// CLoF⟨4⟩ (paper Fig. 2): MCS vs HMCS⟨2⟩/⟨3⟩/⟨4⟩ vs CLoF⟨4⟩-x86.
func Fig2(o Options) *Figure {
	p := X86()
	grid := o.grid(p)
	cfgFor := func(n int) workload.Config { return o.adjust(workload.LevelDB(p.Machine, n)) }
	h2 := topo.MustHierarchy(p.Machine, topo.NUMA, topo.System)
	h3 := topo.MustHierarchy(p.Machine, topo.Core, topo.NUMA, topo.System) // original HMCS config
	f := &Figure{
		ID:     "fig2",
		Title:  "LevelDB on x86: HMCS configurations vs CLoF<4>",
		XLabel: "threads",
		YLabel: "iter/us",
	}
	entries := []lockEntry{
		{"mcs", basicFactory("mcs")},
		{"hmcs<2>", hmcsFactory(h2)},
		{"hmcs<3>", hmcsFactory(h3)},
		{"hmcs<4>", hmcsFactory(p.H4)},
		{"clof<4>-x86 (" + PaperLC4X86 + ")", clofFactory(p.H4, PaperLC4X86)},
	}
	spec := exp.Spec{Name: "fig2", Platform: "x86", Workload: "leveldb", Runs: comparisonRuns(o)}
	f.Series = runCurves(o, spec, entries, cfgFor, grid)
	return f
}

// comparisonRuns is the repetition default for the head-to-head comparison
// figures (2, 4, 10): median of 3, so a single unlucky jitter seed cannot
// move a curve at the parity tolerances the shape tests assert.
func comparisonRuns(o Options) int {
	if o.Runs != 0 {
		return o.Runs
	}
	return 3
}

// cohortCPUs returns the Fig. 3 pinning for one cohort at `level`: one
// thread on the first CPU of each child cohort (the next finer level),
// inside cohort 0 of `level`. At the system level that is one thread per
// package (or NUMA node when packages coincide).
func cohortCPUs(m *topo.Machine, level topo.Level) []int {
	child := level - 1
	for child > topo.Core && m.Cohorts(child) == m.Cohorts(level) {
		child--
	}
	if level == topo.Core {
		return m.CohortCPUs(topo.Core, 0) // hyperthread pair
	}
	var cpus []int
	span := m.CohortCPUs(level, 0)
	childSize := len(m.CohortCPUs(child, 0))
	for i := 0; i < len(span); i += childSize {
		cpus = append(cpus, span[i])
	}
	return cpus
}

// Fig3 reproduces the per-cohort basic-lock comparison (paper Fig. 3):
// LevelDB throughput of each NUMA-oblivious lock inside single cohorts of
// every level, at maximum (one thread per child cohort) contention. One
// Figure per platform. The X axis is the hierarchy level, so the grid
// points carry level keys instead of thread counts.
func Fig3(o Options) []*Figure {
	var out []*Figure
	lockNames := []string{"tkt", "mcs", "clh", "hem", "hem-ctr"}
	for _, pl := range []struct {
		name   string
		m      *topo.Machine
		levels []topo.Level
	}{
		{"x86", topo.X86Server(), []topo.Level{topo.Core, topo.CacheGroup, topo.NUMA, topo.System}},
		{"armv8", topo.Armv8Server(), []topo.Level{topo.CacheGroup, topo.NUMA, topo.Package, topo.System}},
	} {
		f := &Figure{
			ID:     "fig3-" + pl.name,
			Title:  "LevelDB per-cohort throughput of NUMA-oblivious locks on " + pl.name,
			XLabel: "level(core=0..system=4)",
			YLabel: "iter/us",
		}
		spec := exp.Spec{
			Name: f.ID, Platform: pl.name, Workload: "leveldb",
			Locks: lockNames, Runs: o.Runs, Quick: o.Quick,
			Notes: "one thread per child cohort inside a single cohort of each level",
		}
		xs := make([]int, len(pl.levels))
		for i, lvl := range pl.levels {
			xs[i] = int(lvl)
		}
		res := o.sweep(spec, lockRows(lockNames), "level", xs, func(row, lvl int, seed uint64) exp.Sample {
			cfg := o.adjust(workload.LevelDB(pl.m, 0))
			cfg.CPUs = cohortCPUs(pl.m, topo.Level(lvl))
			cfg.Seed = seed
			return measure(basicFactory(lockNames[row]), cfg)
		})
		for i, name := range lockNames {
			f.Series = append(f.Series, series(name, xs, res[i], exp.Result.Throughput))
		}
		f.Notes = append(f.Notes, fmt.Sprintf("threads per level: one per child cohort; levels measured: %v", pl.levels))
		out = append(out, f)
	}
	return out
}

// CohortScorer returns the paper's footnote-5 pre-selection scorer: a basic
// lock's score at a level is its Fig. 3 throughput — LevelDB inside a single
// cohort of that level at maximum contention. The scorer runs inline (the
// pre-selection pass is tiny compared to the sweep it prunes).
func CohortScorer(m *topo.Machine, o Options) clof.LevelScorer {
	cache := map[string]float64{}
	return func(typ locks.Type, lvl topo.Level) float64 {
		key := typ.Name + "@" + lvl.String()
		if v, ok := cache[key]; ok {
			return v
		}
		runs := o.Runs
		if runs <= 0 {
			runs = 1
		}
		vals := make([]float64, 0, runs)
		for r := 0; r < runs; r++ {
			cfg := o.adjust(workload.LevelDB(m, 0))
			cfg.CPUs = cohortCPUs(m, lvl)
			cfg.Seed = uint64(r) * 1315423911
			vals = append(vals, measure(func() lockapi.Lock { return typ.New() }, cfg).Throughput)
		}
		v := exp.Median(vals)
		cache[key] = v
		return v
	}
}

// Fig4 reproduces the Armv8 state-of-the-art comparison (paper Fig. 4):
// CLoF⟨4⟩-Arm vs HMCS⟨4⟩, MCS, CNA and ShflLock.
func Fig4(o Options) *Figure {
	p := Arm()
	grid := o.grid(p)
	cfgFor := func(n int) workload.Config { return o.adjust(workload.LevelDB(p.Machine, n)) }
	f := &Figure{
		ID:     "fig4",
		Title:  "LevelDB on Armv8: CLoF<4> vs state-of-the-art NUMA-aware locks",
		XLabel: "threads",
		YLabel: "iter/us",
	}
	entries := []lockEntry{
		{"clof<4>-arm (" + PaperLC4Arm + ")", clofFactory(p.H4, PaperLC4Arm)},
		{"hmcs<4>", hmcsFactory(p.H4)},
		{"mcs", basicFactory("mcs")},
		{"cna", cnaFactory(p.Machine)},
		{"shfllock", shflFactory(p.Machine)},
	}
	spec := exp.Spec{Name: "fig4", Platform: "armv8", Workload: "leveldb", Runs: comparisonRuns(o)}
	f.Series = runCurves(o, spec, entries, cfgFor, grid)
	return f
}
