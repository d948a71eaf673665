package figures

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/faultinject"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// starveShare is the per-thread progress share below which a thread counts
// as starved (the paper-default anti-starvation gate).
const starveShare = 0.05

// lookupAll resolves catalog lock names, in order; an unknown name panics.
func lookupAll(names []string) []catalog.Entry {
	entries := make([]catalog.Entry, len(names))
	for i, name := range names {
		e, err := catalog.Lookup(name)
		if err != nil {
			panic(err)
		}
		entries[i] = e
	}
	return entries
}

// faultSample measures one fault-plan sweep point: catalog lock e with the
// given thread count on mach, running the LevelDB workload for horizon
// under plan. The sample carries the robustness metrics that Chaos and
// Collapse read back.
func faultSample(mach *topo.Machine, e catalog.Entry, threads int, horizon int64, plan *faultinject.Plan, seed uint64) exp.Sample {
	cfg := workload.LevelDB(mach, threads)
	cfg.Horizon = horizon
	cfg.Seed = seed
	cfg.Faults = plan
	res, err := workload.Run(func() lockapi.Lock { return e.New(mach) }, cfg)
	s := sample(res, err)
	if s.Err == "" {
		s.Metrics = map[string]float64{
			"abandoned":           float64(res.Abandoned),
			"preemptions":         float64(res.Preemptions),
			"stalls":              float64(res.Stalls),
			"max_handover_gap_ns": float64(res.MaxHandoverGapNS),
			"starved":             float64(len(res.Starved(starveShare))),
		}
	}
	return s
}

// Chaos is the fault-injection robustness sweep: every catalog lock under
// every fault-plan preset (internal/faultinject) at 8 and 16 threads on the
// x86 platform. It returns the report as a 12-column CSV, one row per
// (plan, lock, threads) point in plan-major order — throughput, fairness,
// abandoned acquires, injected preemptions and stalls, the max handover
// gap, and the starved-thread count — plus the watchdog's one-line verdict
// over the whole sweep. The sweep is the same at every scale: Quick does
// not shrink it.
func Chaos(o Options) (csv []byte, watchdog string) {
	mach := topo.X86Server()
	plans := faultinject.Names()
	entries := catalog.Locks()
	threads := []int{8, 16}
	horizon := int64(workload.DefaultHorizon)
	spec := exp.Spec{
		Name: "chaos", Platform: "x86", Workload: "leveldb",
		Threads: threads, Runs: o.Runs, Seed: 42,
		Notes: fmt.Sprintf("fault plans: %s; horizon=%dns", strings.Join(plans, ","), horizon),
	}
	for _, e := range entries {
		spec.Locks = append(spec.Locks, e.Name)
	}
	var rows []string
	faults := make([]*faultinject.Plan, len(plans))
	for i, plan := range plans {
		faults[i] = faultinject.MustByName(plan)
		for _, e := range entries {
			rows = append(rows, "plan="+plan+"/lock="+e.Name)
		}
	}
	res := o.sweep(spec, rows, "threads", threads, func(row, n int, seed uint64) exp.Sample {
		return faultSample(mach, entries[row%len(entries)], n, horizon, faults[row/len(entries)], seed)
	})

	var b strings.Builder
	b.WriteString("plan,lock,family,threads,total,iter_per_us,jain,abandoned,preemptions,stalls,max_handover_gap_ns,starved\n")
	starved := 0
	for row, rs := range res {
		plan, e := plans[row/len(entries)], entries[row%len(entries)]
		for i, r := range rs {
			starved += int(r.Metrics["starved"])
			fmt.Fprintf(&b, "%s,%s,%s,%d,%d,%s,%s,%d,%d,%d,%d,%d\n",
				plan, e.Name, e.Family, threads[i], r.Total,
				strconv.FormatFloat(r.Tput.Median, 'f', 4, 64),
				strconv.FormatFloat(r.Jain.Median, 'f', 4, 64),
				int64(r.Metrics["abandoned"]), int64(r.Metrics["preemptions"]), int64(r.Metrics["stalls"]),
				int64(r.Metrics["max_handover_gap_ns"]), int(r.Metrics["starved"]))
		}
	}
	watchdog = "watchdog: no starvation observed"
	if starved > 0 {
		watchdog = fmt.Sprintf("watchdog: %d starved-thread observations (threads below %.0f%% of mean progress)",
			starved, starveShare*100)
	}
	return []byte(b.String()), watchdog
}
