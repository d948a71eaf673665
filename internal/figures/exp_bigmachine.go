package figures

import (
	"fmt"

	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// BigMachineLocks names the catalog entries the bigmachine experiment
// sweeps: the two flat baselines whose collapse motivates hierarchy, the
// NUMA-aware singles, the fixed hierarchical baselines, and three CLoF
// compositions (including the TAS fast path, whose single-thread win the
// low-contention grid points exercise).
var BigMachineLocks = []string{
	"tkt", "mcs",
	"hbo", "cna", "shfllock",
	"hmcs<4>", "c-tkt-tkt",
	"clof:tkt-tkt-tkt-tkt", "clof:mcs-mcs-mcs-mcs", "clof:tas-fastpath",
}

// bigMachineGrid is the thread grid for a deep machine of n vCPUs: the
// low-contention foot, one point per topology boundary (cluster, die,
// socket), and the full machine.
func bigMachineGrid(o Options, n int) []int {
	if o.Quick {
		return []int{1, 64, n}
	}
	grid := []int{1, 8, 64}
	for x := 256; x <= n; x *= 2 {
		grid = append(grid, x)
	}
	return grid
}

// BigMachine sweeps the lock catalog selection over the deep 256/512/1024-
// vCPU topologies (topo.DeepServers), one figure per machine: LevelDB-shaped
// contention from a single thread up to every vCPU on the box. This is the
// scaling experiment of EXPERIMENTS.md "Scaling the substrate": the paper's
// evaluation stops at 128 CPUs, and these panels extrapolate its central
// claim — compositional locks keep their advantage as machines deepen —
// one topology generation out, where a global-spinning baseline has a
// thousand waiters hammering one line.
func BigMachine(o Options) []*Figure {
	var figs []*Figure
	for _, mach := range topo.DeepServers() {
		n := mach.NumCPUs()
		grid := bigMachineGrid(o, n)
		f := &Figure{
			ID:     fmt.Sprintf("bigmachine-%d", n),
			Title:  fmt.Sprintf("catalog locks on %s (%d vCPUs, 4 levels)", mach.Name, n),
			XLabel: "threads",
			YLabel: "iter/us",
		}
		var entries []lockEntry
		for _, e := range lookupAll(BigMachineLocks) {
			entries = append(entries, lockEntry{e.Name, func() lockapi.Lock { return e.New(mach) }})
		}
		spec := exp.Spec{
			Name: f.ID, Platform: mach.Name, Workload: "leveldb",
			Runs:  o.Runs,
			Notes: fmt.Sprintf("deep topology %s: %d vCPUs over 4 distinct levels", mach.Name, n),
		}
		f.Series = runCurves(o, spec, entries,
			func(threads int) workload.Config { return o.adjust(workload.LevelDB(mach, threads)) },
			grid)
		f.Notes = append(f.Notes, bigMachineNotes(f, n)...)
		figs = append(figs, f)
	}
	return figs
}

// bigMachineNotes derives the panel's observations: the best lock at full
// occupancy, and the full-machine advantage of the canonical CLoF
// composition over the flat ticket lock (the headline scaling claim).
func bigMachineNotes(f *Figure, n int) []string {
	var notes []string
	bestName, bestY := "", 0.0
	for _, s := range f.Series {
		if y := s.At(n); y > bestY {
			bestName, bestY = s.Name, y
		}
	}
	if bestName != "" {
		notes = append(notes, fmt.Sprintf("best at %d threads: %s (%.4f iter/us)", n, bestName, bestY))
	}
	clofS, ok1 := f.Get("clof:tkt-tkt-tkt-tkt")
	tktS, ok2 := f.Get("tkt")
	if ok1 && ok2 && tktS.At(n) > 0 {
		notes = append(notes, fmt.Sprintf(
			"clof:tkt-tkt-tkt-tkt vs tkt at %d threads: %.4f vs %.4f iter/us (%.1fx)",
			n, clofS.At(n), tktS.At(n), clofS.At(n)/tktS.At(n)))
	}
	return notes
}
