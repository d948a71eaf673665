package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
	"github.com/clof-go/clof/internal/xrand"
)

// simLock names a simulated lock: label is its metric-name form, catalog
// its catalog name.
type simLock struct{ label, catalog string }

// simLocks are the locks every simulated part runs: two flat queue locks,
// the hand-built hierarchical baseline, and a CLoF composition.
var simLocks = []simLock{
	{"mcs", "mcs"},
	{"cna", "cna"},
	{"hmcs4", "hmcs<4>"},
	{"clof4", "clof:tkt-clh-tkt-tkt"},
}

// simSpec is a set of workload.Run calls on topo.Armv8Server. The
// critical-section constants are fixed here rather than taken from the
// workload.LevelDB preset, so recalibrating the preset cannot move the
// benchmark.
type simSpec struct {
	name    string
	threads int
	horizon int64 // virtual ns per run
	seeds   int
	locks   []simLock
}

const (
	simCSWork    = 300
	simNCSWork   = 2400
	simDataCells = 4
	simJitterNS  = 2
)

// simLockResult pools one lock's runs over every seed.
type simLockResult struct {
	lock       simLock
	entry      catalog.Entry
	total      uint64 // completed iterations (acquisitions)
	now        int64  // summed virtual run length
	events     uint64
	levels     [5]uint64 // handovers by topo.ShareLevel of consecutive owners
	violations uint64
	deadlocks  uint64
	wall       time.Duration // host time inside workload.Run
	tr         *tracer
}

// simResult is a simulated part: per-lock results and the host seconds of
// each pass over the locks (one pass per seed).
type simResult struct {
	locks []*simLockResult
	passS []float64
}

// simSeeds derives n run seeds from the benchmark seed.
func simSeeds(seed uint64, n int) []uint64 {
	r := xrand.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// runSim runs every lock of spec on every derived seed, one pass over the
// locks per seed. Each lock is timed by the benchmark's wrapper on the
// virtual clock, which issues no simulated operation, so the simulated
// schedule is the same with or without span retention.
//
// memsim runs one vCPU goroutine at a time and hands control over on
// channels, so runSim holds GOMAXPROCS at 1: with a second P idle, each
// handoff may wake another OS thread and cross CPUs, which costs far more
// than the simulated step on the 4-thread part and varies with the host's
// load (sim_wall_s spread 16–39% over ten runs at GOMAXPROCS 2).
func runSim(spec simSpec, seed uint64, keepSpans bool) (*simResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := topo.Armv8Server()
	res := &simResult{}
	for _, sl := range spec.locks {
		e, err := catalog.Lookup(sl.catalog)
		if err != nil {
			return nil, err
		}
		tr := newTracer(m.NumCPUs(), virtualClock, true, keepSpans)
		if _, err := wrap(e.New(m), tr); err != nil {
			return nil, err
		}
		res.locks = append(res.locks, &simLockResult{lock: sl, entry: e, tr: tr})
	}
	for i, s := range simSeeds(seed, spec.seeds) {
		var pass time.Duration
		for _, r := range res.locks {
			r.tr.startTrack(fmt.Sprintf("%s %s seed %d", spec.name, r.lock.label, i))
			mk := func() lockapi.Lock {
				l, _ := wrap(r.entry.New(m), r.tr) // cannot fail: checked above
				return l
			}
			cfg := workload.Config{
				Machine: m, Threads: spec.threads, Horizon: spec.horizon, Seed: s,
				CSWork: simCSWork, NCSWork: simNCSWork, DataCells: simDataCells, JitterNS: simJitterNS,
			}
			t0 := time.Now()
			out, err := workload.Run(mk, cfg)
			d := time.Since(t0)
			r.wall += d
			pass += d
			if err != nil {
				r.deadlocks++
				continue
			}
			r.total += out.Total
			r.now += out.Now
			r.events += out.Events
			r.violations += out.ExclusionViolations
			for lv, c := range out.HandoverLevels {
				r.levels[lv] += c
			}
		}
		res.passS = append(res.passS, pass.Seconds())
	}
	return res, nil
}

// vtput is iterations per virtual µs, pooled over the seeds.
func (r *simLockResult) vtput() float64 {
	if r.now == 0 {
		return 0
	}
	return float64(r.total) * 1e3 / float64(r.now)
}

// handoverLocalFrac is the share of handovers between owners that share at
// least a cache group.
func (r *simLockResult) handoverLocalFrac() float64 {
	var all uint64
	for _, c := range r.levels {
		all += c
	}
	if all == 0 {
		return 0
	}
	return float64(r.levels[topo.Core]+r.levels[topo.CacheGroup]) / float64(all)
}
