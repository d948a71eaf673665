// clof-obs runs one catalog lock under a contended workload with the
// observability layer (internal/obs) attached and prints the contention
// profile: the handover-distance table (how far each lock transfer traveled
// in the memory hierarchy, and each level's longest run of consecutive
// acquisitions inside one cohort), acquisition-latency and hold-time
// quantiles, and the per-CPU fairness summary. The per-level counts plus the
// self and first rows always sum to the total acquisitions — the collector
// counts every owner transition exactly once.
//
// Usage:
//
//	clof-obs [-lock NAME] [-threads N] [-platform x86|armv8] [-workload leveldb|kyoto]
//	         [-seed N] [-horizon NS] [-json] [-trace FILE] [-traffic] [-events]
//
// -trace writes the run as Chrome trace-event JSON (one track per virtual
// CPU, flow arrows for cross-CPU handovers), loadable in Perfetto or
// chrome://tracing. -traffic additionally aggregates per-cell memory-op
// counters from the simulator's trace stream (slower). -events prints that
// stream itself before the report, one line per memory operation — a
// debugging lens into lock protocols (who spins where, when the handover
// store lands, how the CLoF pass flag travels); pair it with a short
// -horizon, e.g.
//
//	clof-obs -events -platform armv8 -lock clof:tkt-clh-tkt-tkt -threads 3 -horizon 6000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/obs"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

func main() {
	lockName := flag.String("lock", "clof:tkt-tkt-tkt-tkt", "catalog lock to observe (see -lock help on error for the list)")
	threads := flag.Int("threads", 8, "contending threads (paper placement policy)")
	platform := flag.String("platform", "x86", "simulated platform: x86 or armv8")
	wl := flag.String("workload", "leveldb", "workload preset: leveldb or kyoto")
	seed := flag.Uint64("seed", 1, "simulation seed (equal seeds reproduce runs exactly)")
	horizon := flag.Int64("horizon", 0, "virtual run length in ns (0 keeps the workload preset's)")
	jsonOut := flag.Bool("json", false, "print the full obs.Report as JSON instead of tables")
	tracePath := flag.String("trace", "", "write a Perfetto/Chrome trace JSON of the run to this file")
	traffic := flag.Bool("traffic", false, "also collect per-cell memory-operation traffic (slower)")
	events := flag.Bool("events", false, "print every traced memory operation before the report")
	flag.Parse()

	if *events && *jsonOut {
		fatal(fmt.Errorf("-events and -json both write to stdout; pick one"))
	}
	if *horizon < 0 {
		fatal(fmt.Errorf("-horizon %d is negative", *horizon))
	}

	var mach *topo.Machine
	switch *platform {
	case "x86":
		mach = topo.X86Server()
	case "armv8":
		mach = topo.Armv8Server()
	default:
		fatal(fmt.Errorf("unknown platform %q (want x86 or armv8)", *platform))
	}

	entry, err := catalog.Lookup(*lockName)
	if err != nil {
		fatal(err)
	}

	var cfg workload.Config
	switch *wl {
	case "leveldb":
		cfg = workload.LevelDB(mach, *threads)
	case "kyoto":
		cfg = workload.Kyoto(mach, *threads)
	default:
		fatal(fmt.Errorf("unknown workload %q (want leveldb or kyoto)", *wl))
	}
	cfg.Seed = *seed
	if *horizon > 0 {
		cfg.Horizon = *horizon
	}

	col := obs.NewCollector(mach, obs.Options{Lock: *lockName, Spans: *tracePath != ""})
	cfg.Observer = col
	if *traffic {
		cfg.Trace = col.TraceFunc()
	}
	if *events {
		// One trace func feeds both: the traffic counters (when on) and the
		// event lines, named by the collector's namer so the two agree.
		count, namer := cfg.Trace, col.Namer()
		cfg.Trace = func(ev memsim.TraceEvent) {
			if count != nil {
				count(ev)
			}
			fmt.Println(obs.FormatEvent(ev, namer))
		}
	}

	res, err := workload.Run(func() lockapi.Lock { return entry.New(mach) }, cfg)
	if err != nil {
		fatal(err)
	}
	rep := col.Report()
	if *events {
		fmt.Println() // separate the event lines from the report
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteTraceJSON(f, col); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans, %d handover arrows)\n",
			*tracePath, len(col.Spans()), len(col.Flows()))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	printReport(rep, res)
}

// printReport renders the human-readable contention profile.
func printReport(rep obs.Report, res workload.Result) {
	fmt.Printf("lock=%s machine=%s  %.3f iter/µs over %dns virtual\n",
		rep.Lock, rep.Machine, res.ThroughputOpsPerUs(), res.Now)
	fmt.Printf("\nhandover distance (owner transitions by sharing level):\n")
	fmt.Printf("  %-16s %10s %8s %10s\n", "distance", "count", "share", "max-run")
	total := rep.Acquisitions
	row := func(name string, count uint64, maxRun string) {
		share := 0.0
		if total > 0 {
			share = 100 * float64(count) / float64(total)
		}
		fmt.Printf("  %-16s %10d %7.1f%%", name, count, share)
		if maxRun != "" {
			fmt.Printf(" %10s", maxRun)
		}
		fmt.Println()
	}
	var first uint64
	if total > 0 {
		first = 1
	}
	row("first", first, "")
	row("self", rep.Handover.Self, "")
	for _, lc := range rep.Handover.Levels {
		row(lc.Level, lc.Count, strconv.FormatUint(lc.MaxRun, 10))
	}
	fmt.Printf("  %-16s %10d\n", "total", total)

	lat := rep.AcquireLatency
	hold := rep.Hold
	fmt.Printf("\nacquire latency  p50=%dns p90=%dns p99=%dns max=%dns mean=%.0fns\n",
		lat.P50, lat.P90, lat.P99, lat.Max, lat.Mean)
	fmt.Printf("hold time        p50=%dns p90=%dns p99=%dns max=%dns mean=%.0fns\n",
		hold.P50, hold.P90, hold.P99, hold.Max, hold.Mean)
	fmt.Printf("fairness         jain=%.3f max-starvation=%dns (cpu %d)\n",
		rep.Fairness.Jain, rep.Fairness.MaxStarvationNS, rep.Fairness.StarvedCPU)

	if len(rep.Traffic) > 0 {
		fmt.Printf("\ncache-line traffic (per cell):\n")
		fmt.Printf("  %-10s %10s %12s  %s\n", "cell", "ops", "cost", "by-op")
		for _, t := range rep.Traffic {
			ops := make([]string, 0, len(t.ByOp))
			for op := range t.ByOp {
				ops = append(ops, op)
			}
			sort.Strings(ops)
			var byOp strings.Builder
			for i, op := range ops {
				if i > 0 {
					byOp.WriteByte(' ')
				}
				fmt.Fprintf(&byOp, "%s=%d", op, t.ByOp[op])
			}
			fmt.Printf("  %-10s %10d %10dns  %s\n", t.Cell, t.Ops, t.CostNS, byOp.String())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clof-obs:", err)
	os.Exit(1)
}
