// clof-figures regenerates the paper's tables and figures on the NUMA
// simulator and writes them as CSV (plus ASCII summaries on stderr). The
// measurement grids run on the experiment engine (internal/exp): grid
// points execute in parallel on a bounded worker pool (-j), per-point seeds
// are derived by stable hashing, and every point is recorded in a
// results.json manifest next to the CSVs. Output is byte-for-byte identical
// at any -j level. A run in which any point failed (a deadlock or a
// mutual-exclusion violation) still writes every artifact, then exits
// nonzero naming the first failed point.
//
// Usage:
//
//	clof-figures [-exp ID[,ID...]] [-list] [-out DIR] [-quick] [-runs N] [-j N]
//
// See EXPERIMENTS.md ("The experiment engine") for the artifact schema and
// the recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/figures"
	"github.com/clof-go/clof/internal/prof"
)

// expCtx is what one experiment's runner gets to work with.
type expCtx struct {
	o    figures.Options
	out  string
	emit func(*figures.Figure)
}

// write stores one artifact in the output directory.
func (c *expCtx) write(name string, data []byte) {
	path := filepath.Join(c.out, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// experiment is one runnable entry of the registry.
type experiment struct {
	id  string
	run func(c *expCtx)
}

// registry lists every experiment in "-exp all" execution order.
var registry = []experiment{
	{"table1", func(c *expCtx) { c.emit(figures.Table1()) }},
	{"fig1", func(c *expCtx) {
		x86, arm := figures.Fig1(c.o)
		c.write("fig1a-x86.txt", []byte(x86.ASCII()))
		c.write("fig1b-armv8.txt", []byte(arm.ASCII()))
	}},
	{"table2", func(c *expCtx) { c.emit(figures.Table2(c.o)) }},
	{"hier", func(c *expCtx) {
		for _, h := range figures.DetectedHierarchies(c.o) {
			fmt.Println("detected hierarchy:", h)
		}
	}},
	{"fig2", func(c *expCtx) { c.emit(figures.Fig2(c.o)) }},
	{"fig3", func(c *expCtx) {
		for _, f := range figures.Fig3(c.o) {
			c.emit(f)
		}
	}},
	{"fig4", func(c *expCtx) { c.emit(figures.Fig4(c.o)) }},
	{"fig9", func(c *expCtx) {
		for _, r := range figures.Fig9(c.o) {
			c.emit(r.Figure)
			fmt.Printf("%s: HC-best=%s LC-best=%s worst=%s\n",
				r.Figure.ID, r.Selection.HCBest.Comp, r.Selection.LCBest.Comp, r.Selection.Worst.Comp)
		}
	}},
	{"fig10", func(c *expCtx) {
		for _, f := range figures.Fig10(c.o) {
			c.emit(f)
		}
	}},
	{"fairness", func(c *expCtx) { c.emit(figures.Fairness(c.o)) }},
	{"handover", func(c *expCtx) { c.emit(figures.Handover(c.o)) }},
	{"ablations", func(c *expCtx) {
		c.emit(figures.AblationKeepLocal(c.o))
		c.emit(figures.AblationHasWaiters(c.o))
		c.emit(figures.AblationFastPath(c.o))
		c.emit(figures.CompositionAnalysis(c.o))
	}},
	{"biglittle", func(c *expCtx) { c.emit(figures.BigLittle(c.o)) }},
	{"collapse", func(c *expCtx) {
		for _, f := range figures.Collapse(c.o) {
			c.emit(f)
		}
	}},
	{"chaos", func(c *expCtx) {
		csv, watchdog := figures.Chaos(c.o)
		c.write("chaos.csv", csv)
		fmt.Println(watchdog)
	}},
	{"kv", func(c *expCtx) {
		for _, f := range figures.KV(c.o) {
			c.emit(f)
		}
	}},
	{"bigmachine", func(c *expCtx) {
		for _, f := range figures.BigMachine(c.o) {
			c.emit(f)
		}
	}},
}

func knownIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// selectExperiments expands a comma-separated -exp value against the
// registry, preserving registry order and rejecting unknown IDs.
func selectExperiments(expFlag string) ([]experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(expFlag, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if id == "all" {
			for _, e := range registry {
				want[e.id] = true
			}
			continue
		}
		found := false
		for _, e := range registry {
			if e.id == id {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(knownIDs(), ", "))
		}
		want[id] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("no experiment selected (known: %s)", strings.Join(knownIDs(), ", "))
	}
	var out []experiment
	for _, e := range registry {
		if want[e.id] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs (see -list), or all")
	list := flag.Bool("list", false, "print the known experiment IDs and exit")
	out := flag.String("out", "figures-out", "output directory for CSVs and results.json")
	quickFlag := flag.Bool("quick", false, "reduced grids and horizons (smoke run)")
	runs := flag.Int("runs", 0, "repetitions per point (0 = experiment default)")
	jobs := flag.Int("j", 0, "parallel grid points (0 = GOMAXPROCS); output is identical at any level")
	quiet := flag.Bool("q", false, "suppress progress output")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *list {
		for _, id := range knownIDs() {
			fmt.Println(id)
		}
		return
	}

	selected, err := selectExperiments(*expFlag)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	manifestPath := filepath.Join(*out, "results.json")
	manifest := exp.NewManifest(manifestPath)

	o := figures.Options{Quick: *quickFlag, Runs: *runs, Jobs: *jobs, Manifest: manifest}
	if !*quiet {
		o.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}

	c := &expCtx{o: o, out: *out}
	c.emit = func(f *figures.Figure) {
		path := filepath.Join(*out, f.ID+".csv")
		file, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := f.WriteCSV(file); err != nil {
			fatal(err)
		}
		file.Close()
		if err := f.WriteASCII(os.Stderr); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	for _, e := range selected {
		e.run(c)
	}
	if err := manifest.Save(); err != nil {
		fatal(err)
	}
	sum := manifest.Summary()
	fmt.Printf("wrote %s (%d points, %.0f ms measuring, %.0f iters/sec)\n",
		manifestPath, sum.Points, sum.WallMSTotal, sum.ItersPerSec)
	for _, r := range manifest.Results() {
		if len(r.Errors) > 0 {
			fatal(fmt.Errorf("%d failed runs, the first %s %s: %s", sum.Errors, r.Spec, r.Key, r.Errors[0]))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clof-figures:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
