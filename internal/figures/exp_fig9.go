package figures

import (
	"fmt"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/workload"
)

// Fig9Result is one composition-sweep panel: every generated lock's curve,
// plus the HC-best/LC-best/worst selection and the HMCS baseline.
type Fig9Result struct {
	Figure    *Figure
	Selection clof.Selection
}

// Fig9Panel runs the scripted benchmark (§4.3) for one platform/hierarchy:
// generate all N^M compositions, measure each across the contention grid as
// one engine spec (every (composition, threads) point is an independent
// parallel job), rank under both policies. Panels: ("x86",4)=fig9a,
// ("armv8",4)=fig9b, ("x86",3)=fig9c, ("armv8",3)=fig9d.
func Fig9Panel(p Platform, levels int, o Options) Fig9Result {
	h := p.H4
	if levels == 3 {
		h = p.H3
	}
	basics := locks.BasicLocks(p.Machine.Arch)
	comps := clof.Generate(basics, levels)
	grid := o.grid(p)

	id := map[string]string{
		"x86/4": "fig9a", "armv8/4": "fig9b",
		"x86/3": "fig9c", "armv8/3": "fig9d",
	}[fmt.Sprintf("%s/%d", p.Machine.Arch, levels)]

	hmcsName := fmt.Sprintf("hmcs<%d>", levels)
	spec := exp.Spec{
		Name:      id,
		Platform:  p.Machine.Arch.String(),
		Hierarchy: h.String(),
		Workload:  "leveldb",
		Locks:     []string{hmcsName},
		Threads:   grid,
		Runs:      o.Runs,
		Quick:     o.Quick,
		Notes:     fmt.Sprintf("scripted benchmark: all %d compositions at %d levels plus the %s baseline", len(comps), levels, hmcsName),
	}
	// A failed point counts as zero throughput, as in every figure; comps
	// is never empty here.
	sel, base, _ := Scripted(o, spec, comps,
		func(c clof.Composition, n int, seed uint64) exp.Sample {
			return o.levelDB(p.Machine, compFactory(h, c), n, seed)
		},
		func(_ string, n int, seed uint64) exp.Sample {
			return o.levelDB(p.Machine, hmcsFactory(h), n, seed)
		})

	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("all %d CLoF compositions, %d levels, %s", len(comps), levels, p.Machine.Arch),
		XLabel: "threads",
		YLabel: "iter/us",
	}

	// Highlighted series first: HC-best, LC-best, HMCS baseline, worst.
	toSeries := func(prefix string, m clof.Measurement) Series {
		s := Series{Name: prefix + " (" + m.Comp.String() + ")"}
		for _, pt := range m.Points {
			s.X = append(s.X, pt.Threads)
			s.Y = append(s.Y, pt.Throughput)
		}
		return s
	}
	f.Series = append(f.Series,
		toSeries("HC-best", sel.HCBest),
		toSeries("LC-best", sel.LCBest),
		series(hmcsName, grid, base[0], exp.Result.Throughput),
		toSeries("worst", sel.Worst),
	)
	// Then the full beam of gray lines.
	for _, m := range sel.All {
		f.Series = append(f.Series, toSeries("", m))
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("HC-best=%s LC-best=%s worst=%s", sel.HCBest.Comp, sel.LCBest.Comp, sel.Worst.Comp))
	return Fig9Result{Figure: f, Selection: sel}
}

// Fig9 runs all four panels (a–d). Expensive: 2×(256+64) compositions; use
// Options.Quick for smoke runs.
func Fig9(o Options) []Fig9Result {
	var out []Fig9Result
	for _, pl := range []Platform{X86(), Arm()} {
		for _, levels := range []int{4, 3} {
			o.progress("fig9: %s %d-level sweep", pl.Machine.Arch, levels)
			out = append(out, Fig9Panel(pl, levels, o))
		}
	}
	return out
}

// CompositionAnalysis reproduces §5.2.2: replacing the NUMA level of a good
// Armv8 composition with Ticketlock must crater its high-contention
// throughput (the paper's "worst lock" observation).
func CompositionAnalysis(o Options) *Figure {
	p := Arm()
	grid := o.grid(p)
	cfgFor := func(n int) workload.Config { return o.adjust(workload.LevelDB(p.Machine, n)) }
	f := &Figure{
		ID:     "composition-analysis",
		Title:  "§5.2.2: Ticketlock at the NUMA level on Armv8",
		XLabel: "threads",
		YLabel: "iter/us",
	}
	var entries []lockEntry
	for _, comp := range []string{PaperLC4Arm /* tkt-clh-tkt-tkt */, "tkt-tkt-tkt-tkt", "mcs-tkt-tkt-tkt"} {
		entries = append(entries, lockEntry{comp, clofFactory(p.H4, comp)})
	}
	spec := exp.Spec{Name: f.ID, Platform: "armv8", Workload: "leveldb"}
	f.Series = runCurves(o, spec, entries, cfgFor, grid)
	f.Notes = append(f.Notes, "series 2 and 3 put Ticketlock at the NUMA level (position 2 of 4)")
	return f
}
