package obs_test

import (
	"encoding/json"
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/faultinject"
	"github.com/clof-go/clof/internal/hmcs"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/obs"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// observe runs one short contended workload, under the fault plan faults
// (nil for none), with a collector attached and returns the collector's
// report next to the workload's own result.
func observe(t *testing.T, e catalog.Entry, threads int, faults *faultinject.Plan, opt obs.Options) (obs.Report, workload.Result, *obs.Collector) {
	t.Helper()
	m := topo.X86Server()
	col := obs.NewCollector(m, opt)
	cfg := workload.Config{
		Machine:   m,
		Threads:   threads,
		Horizon:   40_000,
		CSWork:    150,
		NCSWork:   600,
		DataCells: 2,
		Seed:      11,
		Faults:    faults,
		Observer:  col,
	}
	res, err := workload.Run(func() lockapi.Lock { return e.New(m) }, cfg)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return col.Report(), res, col
}

// TestHandoverCountsSum is the collector's core invariant, checked for every
// catalog lock, unfaulted and under the abandon fault plan (whose bounded
// TryAcquire attempts drive the try-path edges): each acquisition after the
// first is either a self-transfer or a cross-CPU handover binned at exactly
// one level, so self + crossings + 1 == acquisitions. The per-level counts
// must also agree exactly with the workload's own independent
// HandoverLevels accounting (both observe the same acquisition sequence).
// Owners sharing a cohort at one level share one at every level above it,
// so MaxRun never decreases from Core up to System, and System's is
// Acquisitions.
func TestHandoverCountsSum(t *testing.T) {
	for _, e := range catalog.Locks() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			checkHandoverCounts(t, e, "none", 6)
			// Three threads leave the lock free often enough that bounded
			// tries succeed for every try-capable lock.
			checkHandoverCounts(t, e, "abandon", 3)
		})
	}
}

// checkHandoverCounts runs TestHandoverCountsSum's checks for one lock and
// thread count under the named fault plan.
func checkHandoverCounts(t *testing.T, e catalog.Entry, plan string, threads int) {
	t.Helper()
	var faults *faultinject.Plan
	if plan != "none" {
		faults = faultinject.MustByName(plan)
	}
	rep, res, _ := observe(t, e, threads, faults, obs.Options{Lock: e.Name})
	if rep.Acquisitions == 0 {
		t.Fatalf("%s: no acquisitions observed", plan)
	}
	if faults != nil && res.Abandoned == 0 && lockapi.SupportsTry(e.New(topo.X86Server())) {
		t.Errorf("%s: no bounded acquire gave up; the try path went unexercised", plan)
	}
	sum := rep.Handover.Self + 1
	var crossings uint64
	for i, lc := range rep.Handover.Levels {
		sum += lc.Count
		crossings += lc.Count
		if want := res.HandoverLevels[i]; lc.Count != want {
			t.Errorf("%s: level %s: obs %d, workload %d", plan, lc.Level, lc.Count, want)
		}
	}
	if crossings != rep.Handover.Crossings {
		t.Errorf("%s: crossings: sum %d, reported %d", plan, crossings, rep.Handover.Crossings)
	}
	if sum != rep.Acquisitions {
		t.Errorf("%s: self+levels+first = %d, acquisitions = %d", plan, sum, rep.Acquisitions)
	}
	levels := rep.Handover.Levels
	for i := 1; i < len(levels); i++ {
		if levels[i].MaxRun < levels[i-1].MaxRun {
			t.Errorf("%s: MaxRun %s=%d < %s=%d", plan, levels[i].Level, levels[i].MaxRun, levels[i-1].Level, levels[i-1].MaxRun)
		}
	}
	if sys := levels[len(levels)-1]; sys.MaxRun != rep.Acquisitions {
		t.Errorf("%s: MaxRun %s=%d, acquisitions %d", plan, sys.Level, sys.MaxRun, rep.Acquisitions)
	}
	if rep.AcquireLatency.Count != rep.Acquisitions {
		t.Errorf("%s: latency samples %d != acquisitions %d", plan, rep.AcquireLatency.Count, rep.Acquisitions)
	}
	if rep.Hold.Count > rep.Acquisitions {
		t.Errorf("%s: hold samples %d > acquisitions %d", plan, rep.Hold.Count, rep.Acquisitions)
	}
	if rep.Fairness.Jain <= 0 || rep.Fairness.Jain > 1.0000001 {
		t.Errorf("%s: jain out of range: %v", plan, rep.Fairness.Jain)
	}
}

// TestTenureBoundedAtEveryLevel saturates the 128-CPU Armv8 machine with
// CLoF and HMCS at H=4 and reads each level's longest tenure from MaxRun:
// a cache group holds the NUMA lock for at most H acquisitions, and a NUMA
// node or package keeps the lock above it for at most 2H-1. A per-level
// pass count would let them run H*H and H*H*H.
func TestTenureBoundedAtEveryLevel(t *testing.T) {
	const H = 4
	h := topo.ArmHierarchy4()
	comp, err := clof.ParseComposition("tkt-clh-tkt-tkt")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		mk   func() lockapi.Lock
	}{
		{"clof:tkt-clh-tkt-tkt", func() lockapi.Lock { return clof.Must(h, comp, clof.WithThreshold(H)) }},
		{"hmcs", func() lockapi.Lock { return hmcs.Must(h, hmcs.WithThreshold(H)) }},
	} {
		name := c.name
		col := obs.NewCollector(h.Machine, obs.Options{Lock: name})
		_, err := workload.Run(c.mk, workload.Config{
			Machine: h.Machine, Threads: h.Machine.NumCPUs(), Horizon: 1_000_000,
			CSWork: 80, NCSWork: 120, DataCells: 2, Seed: 1, Observer: col,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := col.Report()
		t.Logf("%s: %d acquisitions, handover levels %+v", name, rep.Acquisitions, rep.Handover.Levels)
		if rep.Acquisitions < 50*H {
			t.Fatalf("%s: only %d acquisitions", name, rep.Acquisitions)
		}
		for _, lc := range rep.Handover.Levels {
			bound := uint64(2*H - 1)
			switch lc.Level {
			case topo.CacheGroup.String():
				bound = H
			case topo.NUMA.String(), topo.Package.String():
			default:
				continue
			}
			if lc.MaxRun > bound {
				t.Errorf("%s: %s tenure ran %d acquisitions, want <= %d", name, lc.Level, lc.MaxRun, bound)
			}
		}
	}
}

// TestObservationDoesNotPerturb proves the layer's non-interference claim:
// the same seeded run completes identical iterations at identical virtual
// instants with and without a collector attached.
func TestObservationDoesNotPerturb(t *testing.T) {
	m := topo.X86Server()
	e, err := catalog.Lookup("clof:tkt-tkt-tkt-tkt")
	if err != nil {
		t.Fatal(err)
	}
	base := workload.Config{
		Machine: m, Threads: 8, Horizon: 60_000,
		CSWork: 150, NCSWork: 600, DataCells: 2, Seed: 3,
	}
	plain, err := workload.Run(func() lockapi.Lock { return e.New(m) }, base)
	if err != nil {
		t.Fatal(err)
	}
	observed := base
	observed.Observer = obs.NewCollector(m, obs.Options{})
	withObs, err := workload.Run(func() lockapi.Lock { return e.New(m) }, observed)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total != withObs.Total || plain.Now != withObs.Now || plain.Events != withObs.Events {
		t.Errorf("observation perturbed the run: plain {total=%d now=%d events=%d}, observed {total=%d now=%d events=%d}",
			plain.Total, plain.Now, plain.Events, withObs.Total, withObs.Now, withObs.Events)
	}
}

// TestTrafficCounters checks the trace-stream half of the collector: cells
// get stable first-seen names and the per-op splits add up.
func TestTrafficCounters(t *testing.T) {
	m := topo.X86Server()
	e, err := catalog.Lookup("mcs")
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(m, obs.Options{Lock: "mcs"})
	cfg := workload.Config{
		Machine: m, Threads: 4, Horizon: 20_000,
		CSWork: 100, NCSWork: 300, DataCells: 2, Seed: 5,
		Observer: col,
		Trace:    col.TraceFunc(),
	}
	if _, err := workload.Run(func() lockapi.Lock { return e.New(m) }, cfg); err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	if len(rep.Traffic) == 0 {
		t.Fatal("no traffic collected")
	}
	if rep.Traffic[0].Cell != "cell0" {
		t.Errorf("first-seen cell named %q, want cell0", rep.Traffic[0].Cell)
	}
	for _, tr := range rep.Traffic {
		var sum uint64
		for _, n := range tr.ByOp {
			sum += n
		}
		if sum != tr.Ops {
			t.Errorf("%s: by-op sum %d != ops %d", tr.Cell, sum, tr.Ops)
		}
	}
}

// TestReportJSONRoundTrip pins the report's serializability (it rides
// results.json manifests as the "obs" block).
func TestReportJSONRoundTrip(t *testing.T) {
	e, err := catalog.Lookup("tkt")
	if err != nil {
		t.Fatal(err)
	}
	rep, _, _ := observe(t, e, 4, nil, obs.Options{Lock: "tkt"})
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Acquisitions != rep.Acquisitions || back.Handover.Self != rep.Handover.Self {
		t.Errorf("round trip lost data: %+v vs %+v", back, rep)
	}
}

// fakeProc is a clockless lockapi.Proc: timestamps are unavailable, so the
// collector must keep counting handovers while skipping latency statistics.
type fakeProc struct{ id int }

func (f fakeProc) Load(*lockapi.Cell, lockapi.Order) uint64              { return 0 }
func (f fakeProc) Store(*lockapi.Cell, uint64, lockapi.Order)            {}
func (f fakeProc) CAS(*lockapi.Cell, uint64, uint64, lockapi.Order) bool { return true }
func (f fakeProc) Add(*lockapi.Cell, uint64, lockapi.Order) uint64       { return 0 }
func (f fakeProc) Swap(*lockapi.Cell, uint64, lockapi.Order) uint64      { return 0 }
func (f fakeProc) Fence(lockapi.Order)                                   {}
func (f fakeProc) Spin()                                                 {}
func (f fakeProc) ID() int                                               { return f.id }

func TestCollectorWithoutClock(t *testing.T) {
	m := topo.X86Server()
	col := obs.NewCollector(m, obs.Options{})
	for i := 0; i < 3; i++ {
		for _, cpu := range []int{0, 1, 50} {
			p := fakeProc{id: cpu}
			col.AcquireStart(p)
			col.Acquired(p)
			col.Released(p)
		}
	}
	rep := col.Report()
	if rep.Acquisitions != 9 {
		t.Fatalf("acquisitions: %d", rep.Acquisitions)
	}
	// 0→1 and 1→50 cross each round, 50→0 crosses between rounds: 8 total.
	if rep.Handover.Crossings != 8 || rep.Handover.Self != 0 {
		t.Errorf("handover: %+v", rep.Handover)
	}
	if rep.AcquireLatency.Count != 0 || rep.Hold.Count != 0 {
		t.Errorf("clockless run must not record latencies: %+v", rep)
	}
}
