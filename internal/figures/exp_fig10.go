package figures

import (
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// Fig10 reproduces the cross-benchmark, cross-platform validation (paper
// Fig. 10): on each platform and for both workloads (LevelDB, Kyoto
// Cabinet), the LC-best CLoF locks of *both* platforms (3- and 4-level)
// against HMCS⟨4⟩, CNA and ShflLock. Running a lock selected for the other
// platform shows that best locks do not transfer (§5.3.1).
//
// Four panels, one engine spec each: fig10-{leveldb,kyoto}-{x86,armv8}.
func Fig10(o Options) []*Figure {
	runs := comparisonRuns(o) // the paper's #runs=3 for this experiment
	var out []*Figure
	for _, pl := range []Platform{X86(), Arm()} {
		arch := pl.Machine.Arch
		// The 3-/4-level compositions of BOTH platforms, instantiated on
		// THIS platform's hierarchies.
		entries := []lockEntry{
			{"clof<3>-x86 (" + PaperLC3X86 + ")", clofFactory(pl.H3, PaperLC3X86)},
			{"clof<4>-x86 (" + PaperLC4X86 + ")", clofFactory(pl.H4, PaperLC4X86)},
			{"clof<3>-arm (" + PaperLC3Arm + ")", clofFactory(pl.H3, PaperLC3Arm)},
			{"clof<4>-arm (" + PaperLC4Arm + ")", clofFactory(pl.H4, PaperLC4Arm)},
			{"hmcs<4>", hmcsFactory(pl.H4)},
			{"cna", cnaFactory(pl.Machine)},
			{"shfllock", shflFactory(pl.Machine)},
		}
		for _, wl := range []struct {
			name   string
			cfgFor func(n int) workload.Config
		}{
			{"leveldb", func(n int) workload.Config { return o.adjust(workload.LevelDB(pl.Machine, n)) }},
			{"kyoto", func(n int) workload.Config { return o.adjust(workload.Kyoto(pl.Machine, n)) }},
		} {
			f := &Figure{
				ID:     "fig10-" + wl.name + "-" + arch.String(),
				Title:  wl.name + " on " + arch.String() + ": best CLoF locks vs state of the art",
				XLabel: "threads",
				YLabel: "iter/us",
			}
			spec := exp.Spec{Name: f.ID, Platform: arch.String(), Workload: wl.name, Runs: runs}
			f.Series = runCurves(o, spec, entries, wl.cfgFor, o.grid(pl))
			out = append(out, f)
		}
	}
	return out
}

// Fairness reproduces §5.2.3: per-thread throughput fairness (Jain index)
// of the best CLoF locks must closely match HMCS, since both use the same
// keep_local strategy.
func Fairness(o Options) *Figure {
	f := &Figure{
		ID:     "fairness",
		Title:  "§5.2.3: Jain fairness index, CLoF vs HMCS",
		XLabel: "threads",
		YLabel: "jain",
	}
	for _, pl := range []Platform{X86(), Arm()} {
		comp := PaperLC4X86
		if pl.Machine.Arch == topo.ArmV8 {
			comp = PaperLC4Arm
		}
		entries := []lockEntry{
			{"clof<4>-" + pl.Machine.Arch.String(), clofFactory(pl.H4, comp)},
			{"hmcs<4>-" + pl.Machine.Arch.String(), hmcsFactory(pl.H4)},
		}
		var grid []int
		for _, n := range o.grid(pl) {
			if n >= 8 { // fairness is only meaningful under contention
				grid = append(grid, n)
			}
		}
		spec := exp.Spec{
			Name:     "fairness-" + pl.Machine.Arch.String(),
			Platform: pl.Machine.Arch.String(),
			Workload: "leveldb",
			Threads:  grid,
			Runs:     o.Runs,
			Quick:    o.Quick,
			Locks:    []string{entries[0].name, entries[1].name},
			Notes:    "reported value is the Jain fairness index, not throughput",
		}
		res := o.sweep(spec, lockRows(spec.Locks), "threads", grid, func(row, n int, seed uint64) exp.Sample {
			return o.levelDB(pl.Machine, entries[row].mk, n, seed)
		})
		for i, e := range entries {
			f.Series = append(f.Series, series(e.name, grid, res[i], func(r exp.Result) float64 { return r.Jain.Median }))
		}
	}
	return f
}
