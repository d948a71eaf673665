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

// faultPoint is the engine job of one fault-plan sweep point: catalog lock
// e with the given thread count on mach, running the LevelDB workload for
// horizon under plan. Its sample carries the robustness metrics that Chaos
// and Collapse read back.
func faultPoint(key string, mach *topo.Machine, e catalog.Entry, threads int, horizon int64, plan *faultinject.Plan) exp.Point {
	return exp.Point{
		Key: key,
		Run: func(seed uint64) exp.Sample {
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
		},
	}
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
	var points []exp.Point
	for _, name := range plans {
		plan := faultinject.MustByName(name)
		for _, e := range entries {
			for _, n := range threads {
				key := fmt.Sprintf("plan=%s/lock=%s/threads=%d", name, e.Name, n)
				points = append(points, faultPoint(key, mach, e, n, horizon, plan))
			}
		}
	}
	results := o.runner().Run(spec, points)

	var b strings.Builder
	b.WriteString("plan,lock,family,threads,total,iter_per_us,jain,abandoned,preemptions,stalls,max_handover_gap_ns,starved\n")
	starved := 0
	i := 0
	for _, name := range plans {
		for _, e := range entries {
			for _, n := range threads {
				r := results[i]
				i++
				starved += int(r.Metrics["starved"])
				fmt.Fprintf(&b, "%s,%s,%s,%d,%d,%s,%s,%d,%d,%d,%d,%d\n",
					name, e.Name, e.Family, n, r.Total,
					strconv.FormatFloat(r.Tput.Median, 'f', 4, 64),
					strconv.FormatFloat(r.Jain.Median, 'f', 4, 64),
					int64(r.Metrics["abandoned"]), int64(r.Metrics["preemptions"]), int64(r.Metrics["stalls"]),
					int64(r.Metrics["max_handover_gap_ns"]), int(r.Metrics["starved"]))
			}
		}
	}
	watchdog = "watchdog: no starvation observed"
	if starved > 0 {
		watchdog = fmt.Sprintf("watchdog: %d starved-thread observations (threads below %.0f%% of mean progress)",
			starved, starveShare*100)
	}
	return []byte(b.String()), watchdog
}
