package obs

import (
	"encoding/json"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
)

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for _, v := range []int64{1, 5, 100} {
		a.Record(v)
	}
	for _, v := range []int64{0, 7, 3000} {
		b.Record(v)
	}
	a.Merge(&b)
	if a.Count() != 6 {
		t.Fatalf("merged count = %d", a.Count())
	}
	s := a.Summary()
	if s.Min != 0 || s.Max != 3000 {
		t.Errorf("merged min/max = %d/%d, want 0/3000", s.Min, s.Max)
	}
	if want := (1.0 + 5 + 100 + 0 + 7 + 3000) / 6; s.Mean != want {
		t.Errorf("merged mean = %f, want %f", s.Mean, want)
	}
	// Merging into an empty histogram copies.
	var c Hist
	c.Merge(&a)
	if c.Count() != 6 || c.Summary().Min != 0 {
		t.Errorf("merge into empty lost data: %+v", c.Summary())
	}
	// Merging an empty histogram is a no-op (min must not clobber).
	var empty Hist
	before := a.Summary()
	a.Merge(&empty)
	after := a.Summary()
	if after.Count != before.Count || after.Min != before.Min || after.Max != before.Max || after.Mean != before.Mean {
		t.Error("merging empty changed the histogram")
	}
}

// fakeProc is a minimal Proc with a virtual clock for driving collectors;
// its memory operations are never called (observer callbacks must not issue
// any).
type fakeProc struct {
	id  int
	now int64
}

func (f *fakeProc) ID() int     { return f.id }
func (f *fakeProc) Time() int64 { return f.now }

func (f *fakeProc) Load(*lockapi.Cell, lockapi.Order) uint64              { panic("unused") }
func (f *fakeProc) Store(*lockapi.Cell, uint64, lockapi.Order)            { panic("unused") }
func (f *fakeProc) CAS(*lockapi.Cell, uint64, uint64, lockapi.Order) bool { panic("unused") }
func (f *fakeProc) Add(*lockapi.Cell, uint64, lockapi.Order) uint64       { panic("unused") }
func (f *fakeProc) Swap(*lockapi.Cell, uint64, lockapi.Order) uint64      { panic("unused") }
func (f *fakeProc) Fence(lockapi.Order)                                   { panic("unused") }
func (f *fakeProc) Spin()                                                 { panic("unused") }

// TestCombineShards: two shard collectors fold into one report whose totals
// sum the shards and whose Shards block resolves each one.
func TestCombineShards(t *testing.T) {
	m := topo.Armv8Server()
	shard0 := NewCollector(m, Options{})
	shard1 := NewCollector(m, Options{})

	drive := func(c *Collector, cpu int, start, acq, rel int64) {
		p := &fakeProc{id: cpu}
		p.now = start
		c.AcquireStart(p)
		p.now = acq
		c.Acquired(p)
		p.now = rel
		c.Released(p)
	}
	drive(shard0, 0, 0, 10, 20)
	drive(shard0, 1, 15, 30, 40)
	drive(shard1, 2, 0, 5, 50)

	r := CombineShards("rwlock", []*Collector{shard0, shard1}, []uint64{100, 7},
		[]store.OCCShardStats{{Optimistic: 40, ValidationFailures: 3, Fallbacks: 1}})
	if r.Lock != "rwlock" {
		t.Errorf("lock label = %q", r.Lock)
	}
	if r.Acquisitions != 3 {
		t.Fatalf("acquisitions = %d, want 3", r.Acquisitions)
	}
	if len(r.Shards) != 2 {
		t.Fatalf("shards block has %d entries", len(r.Shards))
	}
	if r.Shards[0].Acquisitions != 2 || r.Shards[1].Acquisitions != 1 {
		t.Errorf("per-shard acquisitions = %d/%d, want 2/1",
			r.Shards[0].Acquisitions, r.Shards[1].Acquisitions)
	}
	if r.Shards[0].SharedOps != 100 || r.Shards[1].SharedOps != 7 {
		t.Errorf("shared ops = %d/%d, want 100/7", r.Shards[0].SharedOps, r.Shards[1].SharedOps)
	}
	// OCC counters land on shard 0 only (short slice); shard 1 stays zero.
	if s0 := r.Shards[0]; s0.OptimisticOps != 40 || s0.OCCValidationFailures != 3 || s0.OCCFallbacks != 1 {
		t.Errorf("shard 0 occ = %d/%d/%d, want 40/3/1",
			s0.OptimisticOps, s0.OCCValidationFailures, s0.OCCFallbacks)
	}
	if s1 := r.Shards[1]; s1.OptimisticOps != 0 || s1.OCCValidationFailures != 0 || s1.OCCFallbacks != 0 {
		t.Errorf("shard 1 occ = %d/%d/%d, want zeros", s1.OptimisticOps, s1.OCCValidationFailures, s1.OCCFallbacks)
	}
	if r.AcquireLatency.Count != 3 || r.Hold.Count != 3 {
		t.Errorf("merged histogram counts = %d/%d, want 3/3",
			r.AcquireLatency.Count, r.Hold.Count)
	}
	// Hold times: 10, 10, 45 → max 45.
	if r.Hold.Max != 45 {
		t.Errorf("merged hold max = %d, want 45", r.Hold.Max)
	}
	// The handover invariant holds per shard, and shard0's cross-CPU
	// handover (cpu0 → cpu1) survives the fold.
	if r.Handover.Crossings != 1 {
		t.Errorf("crossings = %d, want 1", r.Handover.Crossings)
	}
	// Runs never span shards: the fold keeps the longest shard's (2), not
	// the total (3).
	if sys := r.Handover.Levels[len(r.Handover.Levels)-1]; sys.MaxRun != 2 {
		t.Errorf("system MaxRun = %d, want 2", sys.MaxRun)
	}
	// The block serializes under "shards".
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m2 map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m2); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2["shards"]; !ok {
		t.Error("report JSON missing shards block")
	}
}

// TestCombineShardsEmpty: no collectors yields a labeled empty report.
func TestCombineShardsEmpty(t *testing.T) {
	r := CombineShards("x", nil, nil, nil)
	if r.Lock != "x" || r.Acquisitions != 0 || r.Shards != nil {
		t.Errorf("empty combine = %+v", r)
	}
}
