// Package figures regenerates every table and figure of the paper's
// evaluation (the per-experiment index in DESIGN.md §4): the hierarchy
// heatmaps and speedups (Fig. 1, Table 2), the LevelDB comparison curves
// (Fig. 2, 3, 4), the exhaustive composition sweeps with lock selection
// (Fig. 9a–d), the cross-benchmark validation (Fig. 10), the fairness and
// composition analyses (§5.2.2, §5.2.3), and the verification-scaling table
// (§3.3/§4.2). All measurements run on the NUMA simulator and are
// reproducible bit-for-bit for a given options set.
//
// Each experiment declares its sweep — an exp.Spec, row keys, an x-axis
// name and values, and a run that measures one (row, x) point — and hands
// it to the one sweep runner, Options.sweep, which keys and orders the
// engine points; series folds each result row into a curve.
package figures

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/cna"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/hmcs"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/shfllock"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// Series is one named curve: throughput (iter/µs) over thread counts.
type Series struct {
	Name string
	X    []int
	Y    []float64
}

// At returns the Y value at thread count x (NaN-free: 0 when absent).
func (s Series) At(x int) float64 {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return 0
}

// Figure is one regenerated table or figure panel.
type Figure struct {
	// ID is the experiment identifier, e.g. "fig9b".
	ID string
	// Title describes the panel (axis of comparison, platform).
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes carries derived observations (selected locks, speedup checks).
	Notes []string
}

// Get returns the series with the given name, if present.
func (f *Figure) Get(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// WriteCSV emits the panel as CSV: header "threads,<series...>" then rows.
func (f *Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	xs := f.unionX()
	cols := make([]string, 0, len(f.Series)+1)
	cols = append(cols, f.XLabel)
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, x := range xs {
		row := []string{fmt.Sprint(x)}
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.4f", s.At(x)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteASCII emits a fixed-width table for terminals.
func (f *Figure) WriteASCII(w io.Writer) error {
	fmt.Fprintf(w, "%s — %s (%s vs %s)\n", f.ID, f.Title, f.YLabel, f.XLabel)
	xs := f.unionX()
	fmt.Fprintf(w, "%-28s", f.XLabel)
	for _, x := range xs {
		fmt.Fprintf(w, "%9d", x)
	}
	fmt.Fprintln(w)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-28s", s.Name)
		for _, x := range xs {
			fmt.Fprintf(w, "%9.3f", s.At(x))
		}
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func (f *Figure) unionX() []int {
	set := map[int]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			set[x] = true
		}
	}
	xs := make([]int, 0, len(set))
	for x := range set {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	return xs
}

// Options scales the experiments: Quick produces the same shapes on reduced
// grids and shorter horizons for tests; the default reproduces the paper's
// grids.
type Options struct {
	// Quick reduces grids/horizons (tests, smoke runs).
	Quick bool
	// Runs is the per-point repetition count (median taken); 0 = paper
	// defaults (3 for the head-to-head comparisons of Figs. 2, 4 and 10,
	// see comparisonRuns; 1 everywhere else).
	Runs int
	// Progress, if non-nil, receives one line per completed measurement.
	Progress func(string)
	// Jobs is the experiment engine's worker-pool width (the CLIs' -j
	// flag); <= 0 means GOMAXPROCS. Results are identical at any width.
	Jobs int
	// Manifest, when non-nil, collects every grid point as a results.json
	// record (internal/exp).
	Manifest *exp.Manifest
}

// runner builds the engine runner these options describe.
func (o Options) runner() *exp.Runner {
	return &exp.Runner{Jobs: o.Jobs, Manifest: o.Manifest, Progress: o.Progress}
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Platform bundles a machine with its paper hierarchies and thread grid.
type Platform struct {
	Machine *topo.Machine
	H4, H3  *topo.Hierarchy
	Grid    []int
}

// X86 is the paper's x86 evaluation platform.
func X86() Platform {
	return Platform{
		Machine: topo.X86Server(),
		H4:      topo.X86Hierarchy4(),
		H3:      topo.X86Hierarchy3(),
		Grid:    []int{1, 4, 8, 16, 24, 32, 48, 64, 95},
	}
}

// Arm is the paper's Armv8 evaluation platform.
func Arm() Platform {
	return Platform{
		Machine: topo.Armv8Server(),
		H4:      topo.ArmHierarchy4(),
		H3:      topo.ArmHierarchy3(),
		Grid:    []int{1, 4, 8, 16, 24, 32, 48, 64, 95, 127},
	}
}

// grid returns the (possibly reduced) thread grid.
func (o Options) grid(p Platform) []int {
	if !o.Quick {
		return p.Grid
	}
	max := p.Grid[len(p.Grid)-1]
	return []int{1, 8, 32, max}
}

// adjust halves a workload's horizon in Quick mode.
func (o Options) adjust(cfg workload.Config) workload.Config {
	if o.Quick {
		cfg.Horizon /= 2
	}
	return cfg
}

// The paper's reported best compositions (§5.2.1, Fig. 9/10 captions); used
// as the default CLoF locks in Figs. 2/4/10 so those figures do not require
// a full Fig. 9 sweep first. Fig. 9 derives this repository's own
// selections and reports both.
const (
	PaperLC4X86 = "tkt-tkt-mcs-mcs"
	PaperLC3X86 = "tkt-mcs-mcs"
	PaperLC4Arm = "tkt-clh-tkt-tkt"
	PaperLC3Arm = "tkt-clh-tkt"
	PaperHC4X86 = "hem-hem-mcs-clh"
	PaperHC3X86 = "hem-mcs-tkt"
	PaperHC4Arm = "tkt-clh-clh-clh"
	PaperHC3Arm = "tkt-clh-tkt"
)

// --- lock factories ---

// clofFactory builds a CLoF lock from paper notation over h.
func clofFactory(h *topo.Hierarchy, comp string, opts ...clof.Option) workload.LockFactory {
	c, err := clof.ParseComposition(comp)
	if err != nil {
		panic(err)
	}
	return func() lockapi.Lock { return clof.Must(h, c, opts...) }
}

func compFactory(h *topo.Hierarchy, c clof.Composition) workload.LockFactory {
	return func() lockapi.Lock { return clof.Must(h, c) }
}

func hmcsFactory(h *topo.Hierarchy) workload.LockFactory {
	return func() lockapi.Lock { return hmcs.Must(h) }
}

func basicFactory(name string) workload.LockFactory {
	t := locks.MustType(name)
	return func() lockapi.Lock { return t.New() }
}

func cnaFactory(m *topo.Machine) workload.LockFactory {
	return func() lockapi.Lock { return cna.New(m) }
}

func shflFactory(m *topo.Machine) workload.LockFactory {
	return func() lockapi.Lock { return shfllock.New(m) }
}

// --- measurement helpers (backed by the experiment engine) ---

// lockEntry is one named factory in a sweep.
type lockEntry struct {
	name string
	mk   workload.LockFactory
}

// sample converts one workload run into an engine sample. A run that
// deadlocked (err) or let two threads into the critical section at once is
// a failed run: exp.Sample.Err is set and the point reports zero
// throughput rather than aborting the sweep; clof-figures exits nonzero
// once every experiment is written.
func sample(res workload.Result, err error) exp.Sample {
	if err != nil {
		return exp.Sample{Err: err.Error()}
	}
	if res.ExclusionViolations > 0 {
		return exp.Sample{Err: fmt.Sprintf("%d mutual-exclusion violations", res.ExclusionViolations)}
	}
	return exp.Sample{Throughput: res.ThroughputOpsPerUs(), Jain: res.Jain(), Total: res.Total}
}

// measure executes one workload run and converts it to an engine sample.
func measure(mk workload.LockFactory, cfg workload.Config) exp.Sample {
	return sample(workload.Run(mk, cfg))
}

// levelDB measures mk on the LevelDB workload over m at the given thread
// count and seed.
func (o Options) levelDB(m *topo.Machine, mk workload.LockFactory, threads int, seed uint64) exp.Sample {
	cfg := o.adjust(workload.LevelDB(m, threads))
	cfg.Seed = seed
	return measure(mk, cfg)
}

// sweep measures rows×xs as one engine spec and returns the results row by
// row. Point (i, j) is keyed "<rows[i]>/<axis>=<xs[j]>" — rows carry their
// own key prefix, e.g. "lock=mcs" — and run(i, xs[j], seed) measures it
// under the engine's per-point seed. Points are dispatched in row-major
// order, and spec reaches the engine untouched: its hash seeds every point,
// so the results depend only on the spec and the keys, never on Options.Jobs.
func (o Options) sweep(spec exp.Spec, rows []string, axis string, xs []int, run func(row, x int, seed uint64) exp.Sample) [][]exp.Result {
	points := make([]exp.Point, 0, len(rows)*len(xs))
	for i, row := range rows {
		for _, x := range xs {
			points = append(points, exp.Point{
				Key: row + "/" + axis + "=" + strconv.Itoa(x),
				Run: func(seed uint64) exp.Sample { return run(i, x, seed) },
			})
		}
	}
	flat := o.runner().Run(spec, points)
	out := make([][]exp.Result, len(rows))
	for i := range out {
		lo, hi := i*len(xs), (i+1)*len(xs)
		out[i] = flat[lo:hi:hi]
	}
	return out
}

// valueOf is the value a figure reports for one point: v(r), or 0 when any
// of the point's runs failed (the error stays on r, and clof-figures exits
// nonzero once everything is written).
func valueOf(r exp.Result, v func(exp.Result) float64) float64 {
	if len(r.Errors) > 0 {
		return 0
	}
	return v(r)
}

// series folds one sweep row into a curve over xs through v.
func series(name string, xs []int, row []exp.Result, v func(exp.Result) float64) Series {
	s := Series{Name: name, X: xs, Y: make([]float64, len(row))}
	for i, r := range row {
		s.Y[i] = valueOf(r, v)
	}
	return s
}

// lockRows keys one sweep row per lock name: "lock=<name>".
func lockRows(names []string) []string {
	rows := make([]string, len(names))
	for i, n := range names {
		rows[i] = "lock=" + n
	}
	return rows
}

// runCurves measures entries×grid as one engine spec, recording the entries
// and grid in it, and returns one throughput Series per entry, in entry
// order.
func runCurves(o Options, spec exp.Spec, entries []lockEntry, cfgFor func(threads int) workload.Config, grid []int) []Series {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	spec.Threads = grid
	spec.Locks = append(spec.Locks, names...)
	spec.Quick = o.Quick
	if spec.Runs == 0 {
		spec.Runs = o.Runs
	}
	res := o.sweep(spec, lockRows(names), "threads", grid, func(row, n int, seed uint64) exp.Sample {
		cfg := cfgFor(n)
		cfg.Seed = seed
		return measure(entries[row].mk, cfg)
	})
	out := make([]Series, len(names))
	for i, name := range names {
		out[i] = series(name, grid, res[i], exp.Result.Throughput)
	}
	return out
}

// Scripted is the scripted benchmark (§4.3, the last boxes of Fig. 5): it
// measures every composition at every thread count of spec.Threads, plus
// one baseline row per name in the caller's spec.Locks, as one engine spec,
// and applies both selection policies. run measures one (composition,
// threads) point and baseline one (lock, threads) point, each under the
// engine's per-point seed; the composition names go in front of the
// caller's spec.Locks, and baseline may be nil when there are none. It
// returns the selection and the baseline rows' results, one row per
// spec.Locks name, each in grid order.
//
// A failed composition point counts as zero throughput in the selection
// (exp.Sample.Err); the error names the first one in point order. The
// error is also set when comps is empty.
func Scripted(o Options, spec exp.Spec, comps []clof.Composition, run func(c clof.Composition, threads int, seed uint64) exp.Sample, baseline func(lock string, threads int, seed uint64) exp.Sample) (clof.Selection, [][]exp.Result, error) {
	grid, bases := spec.Threads, spec.Locks
	names := make([]string, 0, len(comps)+len(bases))
	rows := make([]string, 0, len(comps)+len(bases))
	for _, c := range comps {
		names = append(names, c.String())
		rows = append(rows, "comp="+c.String())
	}
	spec.Locks = append(names, bases...)
	res := o.sweep(spec, append(rows, lockRows(bases)...), "threads", grid, func(row, n int, seed uint64) exp.Sample {
		if row < len(comps) {
			return run(comps[row], n, seed)
		}
		return baseline(bases[row-len(comps)], n, seed)
	})

	var failed error
	ms := make([]clof.Measurement, len(comps))
	for ci, c := range comps {
		ms[ci].Comp = c
		for gi, r := range res[ci] {
			if len(r.Errors) > 0 && failed == nil {
				failed = fmt.Errorf("%s: %s", r.Key, r.Errors[0])
			}
			ms[ci].Points = append(ms[ci].Points, clof.Point{Threads: grid[gi], Throughput: valueOf(r, exp.Result.Throughput)})
		}
	}
	sel, err := clof.Select(ms)
	if err == nil {
		err = failed
	}
	return sel, res[len(comps):], err
}

// ScriptedLevelDB is the scripted benchmark on the simulated LevelDB
// workload over h: the spec cmd/clof-bench runs by default, with the given
// contention grid and base seed.
func ScriptedLevelDB(o Options, h *topo.Hierarchy, comps []clof.Composition, grid []int, seed uint64) (clof.Selection, error) {
	spec := exp.Spec{
		Name:      "bench",
		Platform:  h.Machine.Arch.String(),
		Hierarchy: h.String(),
		Workload:  "leveldb",
		Threads:   grid,
		Runs:      o.Runs,
		Seed:      seed,
		Quick:     o.Quick,
		Notes:     "scripted benchmark (§4.3)",
	}
	sel, _, err := Scripted(o, spec, comps, func(c clof.Composition, threads int, seed uint64) exp.Sample {
		return o.levelDB(h.Machine, compFactory(h, c), threads, seed)
	}, nil)
	return sel, err
}
