package bench

import (
	"reflect"
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

var smallSim = simSpec{name: "t", threads: 16, horizon: 400_000, seeds: 2, locks: simLocks}

// virtual is everything a simulated run reports in virtual terms.
type virtual struct {
	total, events uint64
	now           int64
	levels        [5]uint64
	acq           hist
}

func virtuals(t *testing.T, res *simResult) []virtual {
	t.Helper()
	var out []virtual
	for _, r := range res.locks {
		if r.deadlocks != 0 || r.violations != 0 {
			t.Fatalf("%s: %d deadlocks, %d exclusion violations", r.lock.label, r.deadlocks, r.violations)
		}
		out = append(out, virtual{total: r.total, events: r.events, now: r.now, levels: r.levels, acq: *r.tr.merged(kAcquire)})
	}
	return out
}

// TestTimingDoesNotPerturbSimulation: the wrapped runs, with or without
// kept spans, match workload.Run on the bare catalog lock exactly —
// iterations, events, virtual time and handover levels.
func TestTimingDoesNotPerturbSimulation(t *testing.T) {
	spec := smallSim
	spec.seeds = 1
	plain, err := runSim(spec, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runSim(spec, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(virtuals(t, plain), virtuals(t, traced)) {
		t.Fatal("keeping spans changed the simulated results")
	}
	m := topo.Armv8Server()
	for i, sl := range spec.locks {
		e, err := catalog.Lookup(sl.catalog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workload.Run(func() lockapi.Lock { return e.New(m) }, workload.Config{
			Machine: m, Threads: spec.threads, Horizon: spec.horizon, Seed: simSeeds(5, 1)[0],
			CSWork: simCSWork, NCSWork: simNCSWork, DataCells: simDataCells, JitterNS: simJitterNS,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := plain.locks[i]
		if res.Total != r.total || res.Events != r.events || res.Now != r.now || res.HandoverLevels != r.levels {
			t.Errorf("%s: unwrapped run %d iter %d events %d ns, wrapped %d iter %d events %d ns",
				sl.label, res.Total, res.Events, res.Now, r.total, r.events, r.now)
		}
		if r.tr.merged(kAcquire).n < res.Total {
			t.Errorf("%s: %d timed acquisitions for %d iterations", sl.label, r.tr.merged(kAcquire).n, res.Total)
		}
	}
}

func TestSimSeedReproducesAndVaries(t *testing.T) {
	a, err := runSim(smallSim, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSim(smallSim, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runSim(smallSim, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	va, vb, vc := virtuals(t, a), virtuals(t, b), virtuals(t, c)
	if !reflect.DeepEqual(va, vb) {
		t.Fatal("the same seed gave different simulated results")
	}
	for i := range va {
		if reflect.DeepEqual(va[i], vc[i]) {
			t.Errorf("%s: seeds 11 and 12 gave identical results", a.locks[i].lock.label)
		}
	}
}
