package figures

import (
	"fmt"

	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/faultinject"
	"github.com/clof-go/clof/internal/topo"
)

// Saturation geometry of the collapse experiment, shared with its tests.
const (
	// collapseHorizonNS is the virtual run length. It must dwarf the
	// oversubscribed plan's 60µs preemption slices: at the scripted
	// benchmark's default 300µs horizon a sweep point completes only tens of
	// acquisitions and the curves are sampling noise.
	collapseHorizonNS = 3_000_000
	// CollapseSaturation is the first thread count counted as "past
	// saturation" on the oversubscribed platform: twice its 8 physical
	// cores, i.e. every core already multiplexes at least two threads.
	CollapseSaturation = 16
)

// CollapseLocks names the catalog entries the collapse experiment sweeps:
// each raw lock next to its concurrency-restricted wrapping, for the global
// spinning baseline and the full CLoF composition.
var CollapseLocks = []string{"tkt", "cr:tkt", "clof:tkt-tkt-tkt-tkt", "cr:clof:tkt-tkt-tkt-tkt"}

// Collapse measures saturation behavior on the oversubscribed platform (8
// physical cores exposing 64 hardware threads): throughput curves for raw
// locks against their cr.Restrict wrappings, once undisturbed and once under
// the "oversubscribed" fault plan (periodic 60µs lock-holder preemptions —
// the involuntary-descheduling regime of Dice & Kogan). The expected shape,
// asserted by the Notes and by TestCollapseQuick: the raw Ticketlock
// collapses past saturation (every spinner burns a core the holder needs),
// while the restricted variant parks the excess and keeps throughput within
// a bounded fraction of its peak — and nobody starves doing so.
func Collapse(o Options) []*Figure {
	mach := topo.OversubscribedServer()
	grid := []int{1, 2, 4, 8, 16, 32, 48, 64}
	horizon := int64(collapseHorizonNS)
	if o.Quick {
		grid = []int{1, 4, 8, 16, 32, 64}
		horizon /= 2
	}
	plans := []struct {
		name string
		plan *faultinject.Plan
	}{
		{"none", nil},
		{"oversubscribed", faultinject.MustByName("oversubscribed")},
	}

	entries := lookupAll(CollapseLocks)

	var figs []*Figure
	for _, pl := range plans {
		f := &Figure{
			ID:     "collapse-" + pl.name,
			Title:  fmt.Sprintf("saturation on %s, fault plan %s (raw vs concurrency-restricted)", mach.Name, pl.name),
			XLabel: "threads",
			YLabel: "iter/us",
		}
		spec := exp.Spec{
			Name: f.ID, Platform: "oversub", Workload: "leveldb",
			Threads: grid, Runs: o.Runs, Quick: o.Quick,
			Locks: CollapseLocks,
			Notes: fmt.Sprintf("fault plan %s; horizon=%dns; saturation at %d threads", pl.name, horizon, CollapseSaturation),
		}
		res := o.sweep(spec, lockRows(CollapseLocks), "threads", grid, func(row, n int, seed uint64) exp.Sample {
			return faultSample(mach, entries[row], n, horizon, pl.plan, seed)
		})
		starved := map[string]int{}
		for i, name := range CollapseLocks {
			f.Series = append(f.Series, series(name, grid, res[i], exp.Result.Throughput))
			for _, r := range res[i] {
				starved[name] += int(r.Metrics["starved"])
			}
		}
		f.Notes = append(f.Notes, collapseNotes(f, starved)...)
		figs = append(figs, f)
	}
	return figs
}

// CollapseStats summarizes one series of a collapse figure: the peak over
// the whole grid and the floor past saturation, whose ratio is the
// collapse/retention measure the experiment is about.
type CollapseStats struct {
	Peak, TailFloor float64
}

// Retention is the past-saturation floor as a fraction of the peak (0 when
// the series never peaked).
func (c CollapseStats) Retention() float64 {
	if c.Peak == 0 {
		return 0
	}
	return c.TailFloor / c.Peak
}

// SeriesStats computes the collapse statistics of one series.
func SeriesStats(s Series) CollapseStats {
	var st CollapseStats
	first := true
	for i, x := range s.X {
		if s.Y[i] > st.Peak {
			st.Peak = s.Y[i]
		}
		if x >= CollapseSaturation {
			if first || s.Y[i] < st.TailFloor {
				st.TailFloor = s.Y[i]
			}
			first = false
		}
	}
	return st
}

// collapseNotes derives the figure's self-describing observations: the raw
// baselines' collapse factors, the restricted variants' retention, and the
// per-lock starvation tally (the watchdog's count of threads below 5% of
// mean progress, summed over the grid).
func collapseNotes(f *Figure, starved map[string]int) []string {
	var notes []string
	for _, pair := range [][2]string{
		{"tkt", "cr:tkt"},
		{"clof:tkt-tkt-tkt-tkt", "cr:clof:tkt-tkt-tkt-tkt"},
	} {
		raw, ok1 := f.Get(pair[0])
		cr, ok2 := f.Get(pair[1])
		if !ok1 || !ok2 {
			continue
		}
		rs, cs := SeriesStats(raw), SeriesStats(cr)
		collapse := 0.0
		if rs.TailFloor > 0 {
			collapse = rs.Peak / rs.TailFloor
		}
		notes = append(notes, fmt.Sprintf(
			"%s: peak %.4f, floor %.4f past %d threads (collapse %.2fx); %s: peak %.4f, floor %.4f (retains %.0f%%)",
			pair[0], rs.Peak, rs.TailFloor, CollapseSaturation, collapse,
			pair[1], cs.Peak, cs.TailFloor, cs.Retention()*100))
	}
	for _, name := range CollapseLocks {
		if n := starved[name]; n > 0 {
			notes = append(notes, fmt.Sprintf("starved threads (<5%% of mean progress): %s=%d", name, n))
		}
	}
	notes = append(notes, fmt.Sprintf(
		"starved threads under cr wrappers: cr:tkt=%d cr:clof:tkt-tkt-tkt-tkt=%d (restriction parks waiters without starving them)",
		starved["cr:tkt"], starved["cr:clof:tkt-tkt-tkt-tkt"]))
	return notes
}
