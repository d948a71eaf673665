// clof-bench is the paper's scripted benchmark (§4.3, the last boxes of the
// Fig. 5 workflow): given a platform (or a hierarchy configuration file) it
// generates every composition of the basic locks, measures each across the
// contention grid on the simulated LevelDB workload, and reports the
// HC-best, LC-best and worst locks under both selection policies.
//
// The sweep is figures.Scripted, the one implementation of §4.3 that Fig. 9
// and the root package's ScriptedBenchmark also run. It runs on the
// experiment engine (internal/exp): every (composition, threads) point is
// an independent job on a bounded worker pool (-j), per-point seeds derive
// from stable hashing, and -runs > 1 reports the median. Output is
// identical at any -j level. -out records every point as a results.json
// artifact.
//
// Usage:
//
//	clof-bench [-platform x86|armv8] [-hier FILE] [-levels 3|4] [-threads CSV]
//	           [-workload leveldb|kv] [-shards N] [-mix NAME]
//	           [-runs N] [-seed N] [-j N] [-out FILE] [-preselect K] [-v]
//
// -workload kv scores each composition as the per-shard lock of the sharded
// serving engine instead of the global LevelDB lock: the store's Router on
// memsim (workload.RunKV) with -shards shards, the -mix operation mix and
// Zipfian keys.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/figures"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/prof"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

func main() {
	platform := flag.String("platform", "armv8", "simulated platform: x86 or armv8")
	hierFile := flag.String("hier", "", "hierarchy configuration file (from clof-hier); overrides -platform/-levels")
	levels := flag.Int("levels", 4, "hierarchy depth when no -hier file is given (3 or 4)")
	threadsCSV := flag.String("threads", "", "comma-separated contention grid (default: the paper's grid)")
	workloadFlag := flag.String("workload", "leveldb", "measurement workload: leveldb (§4.3) or kv (sharded serving)")
	shards := flag.Int("shards", 8, "shard count for -workload kv")
	mixFlag := flag.String("mix", "read-mostly", "operation mix for -workload kv: read-mostly, write-heavy, rmw, scan")
	runs := flag.Int("runs", 1, "runs per measurement point (median)")
	seed := flag.Uint64("seed", 0, "base seed; per-point seeds derive from it by stable hashing")
	jobs := flag.Int("j", 0, "parallel grid points (0 = GOMAXPROCS); output is identical at any level")
	outFile := flag.String("out", "", "optional results.json artifact path")
	preselect := flag.Int("preselect", 0, "keep only the K best basic locks per level before the sweep (footnote 5; 0 = full N^M)")
	verbose := flag.Bool("v", false, "print every composition's scores")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	var h *topo.Hierarchy
	switch {
	case *hierFile != "":
		b, err := os.ReadFile(*hierFile)
		if err != nil {
			fatal(err)
		}
		h = &topo.Hierarchy{}
		if err := h.UnmarshalText(b); err != nil {
			fatal(err)
		}
	case *platform == "x86" && *levels == 4:
		h = topo.X86Hierarchy4()
	case *platform == "x86":
		h = topo.X86Hierarchy3()
	case *levels == 4:
		h = topo.ArmHierarchy4()
	default:
		h = topo.ArmHierarchy3()
	}
	m := h.Machine

	grid := []int{1, 4, 8, 16, 24, 32, 48, 64, m.NumCPUs() - 1}
	if *threadsCSV != "" {
		grid = nil
		for _, s := range strings.Split(*threadsCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			grid = append(grid, n)
		}
	}

	basics := locks.BasicLocks(m.Arch)
	var comps []clof.Composition
	if *preselect > 0 {
		fmt.Fprintf(os.Stderr, "pre-selection: scoring basic locks per level (footnote 5)\n")
		scorer := figures.CohortScorer(m, figures.Options{Runs: *runs})
		comps = clof.Preselect(basics, h, *preselect, scorer)
	} else {
		comps = clof.Generate(basics, h.Depth())
	}
	fmt.Printf("scripted benchmark: %s, %d compositions, grid %v\n", h, len(comps), grid)

	var manifest *exp.Manifest
	if *outFile != "" {
		manifest = exp.NewManifest(*outFile)
	}
	// One line per 64 completed points. The runner serializes Progress
	// calls, so the counter needs no lock.
	done, total := 0, len(comps)*len(grid)
	o := figures.Options{
		Runs:     *runs,
		Jobs:     *jobs,
		Manifest: manifest,
		Progress: func(string) {
			done++
			if done%64 == 0 {
				fmt.Fprintf(os.Stderr, "  %d/%d measurements\n", done, total)
			}
		},
	}

	var sel clof.Selection
	switch *workloadFlag {
	case "leveldb":
		sel, err = figures.ScriptedLevelDB(o, h, comps, grid, *seed)
	case "kv":
		var mix store.Mix
		for _, mx := range store.Mixes() {
			if mx.Name == *mixFlag {
				mix = mx
			}
		}
		if mix.Name == "" {
			fatal(fmt.Errorf("unknown mix %q (known: read-mostly, write-heavy, rmw, scan)", *mixFlag))
		}
		spec := exp.Spec{
			Name:      "bench",
			Platform:  m.Arch.String(),
			Hierarchy: h.String(),
			Workload:  "kv",
			Threads:   grid,
			Runs:      *runs,
			Seed:      *seed,
			Notes:     fmt.Sprintf("scripted benchmark, sharded serving: %d shards, mix %s, zipfian keys", *shards, mix.Name),
		}
		sel, _, err = figures.Scripted(o, spec, comps, func(comp clof.Composition, n int, seed uint64) exp.Sample {
			res, err := workload.RunKV(workload.KVConfig{
				Machine: m, Threads: n, Shards: *shards,
				NewShardLock: func() lockapi.Lock { return clof.Must(h, comp) },
				Horizon:      300_000, // the scripted benchmark's horizon
				Mix:          mix, Dist: store.DistZipfian,
				Seed: seed,
			})
			if err != nil {
				return exp.Sample{Err: err.Error()}
			}
			return exp.Sample{Throughput: res.ThroughputOpsPerUs(), Jain: res.Jain(), Total: res.Total}
		})
	default:
		fatal(fmt.Errorf("unknown workload %q (known: leveldb, kv)", *workloadFlag))
	}
	if err != nil {
		fatal(err)
	}

	if *verbose {
		fmt.Println("\nall compositions (HC-ranked):")
		for _, mm := range sel.All {
			fmt.Printf("  %-20s HC=%.3f LC=%.3f\n", mm.Comp, mm.Score(clof.HighContention), mm.Score(clof.LowContention))
		}
	}
	fmt.Printf("\nHC-best: %-20s (weighted score %.3f)\n", sel.HCBest.Comp, sel.HCBest.Score(clof.HighContention))
	fmt.Printf("LC-best: %-20s (weighted score %.3f)\n", sel.LCBest.Comp, sel.LCBest.Score(clof.LowContention))
	fmt.Printf("worst:   %-20s\n", sel.Worst.Comp)
	fmt.Println("\nthroughput (iter/us) of the selected locks:")
	fmt.Printf("%-10s", "threads")
	for _, n := range grid {
		fmt.Printf("%8d", n)
	}
	fmt.Println()
	for _, e := range []struct {
		name string
		m    clof.Measurement
	}{{"HC-best", sel.HCBest}, {"LC-best", sel.LCBest}, {"worst", sel.Worst}} {
		fmt.Printf("%-10s", e.name)
		for _, pt := range e.m.Points {
			fmt.Printf("%8.3f", pt.Throughput)
		}
		fmt.Println()
	}
	if manifest != nil {
		if err := manifest.Save(); err != nil {
			fatal(err)
		}
		sum := manifest.Summary()
		fmt.Printf("\nwrote %s (%d points, %.0f ms measuring, %.0f iters/sec)\n",
			manifest.Path(), sum.Points, sum.WallMSTotal, sum.ItersPerSec)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clof-bench:", err)
	os.Exit(1)
}
