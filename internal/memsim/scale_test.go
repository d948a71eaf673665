package memsim

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// TestSharerSetBeyond64 pins the per-line sharer representation across the
// 64-CPU word boundary: the bitset must track membership and population
// exactly for CPU ids spanning multiple words, and reset must clear every
// word (a one-word reset would silently undercharge invalidations on deep
// machines).
func TestSharerSetBeyond64(t *testing.T) {
	var s cpuSet
	s.init(1024)
	if got := len(s.bits); got != 16 {
		t.Fatalf("1024-CPU set allocated %d words, want 16", got)
	}
	boundary := []int{0, 1, 63, 64, 65, 127, 128, 255, 256, 511, 512, 1023}
	for _, cpu := range boundary {
		s.add(cpu)
		s.add(cpu) // idempotent: count must not double
	}
	if got := s.count(); got != len(boundary) {
		t.Fatalf("count = %d, want %d", got, len(boundary))
	}
	for _, cpu := range boundary {
		if !s.has(cpu) {
			t.Errorf("has(%d) = false after add", cpu)
		}
	}
	for _, cpu := range []int{2, 62, 66, 129, 1022} {
		if s.has(cpu) {
			t.Errorf("has(%d) = true, never added", cpu)
		}
	}
	s.reset()
	if s.count() != 0 {
		t.Fatalf("count = %d after reset", s.count())
	}
	for _, cpu := range boundary {
		if s.has(cpu) {
			t.Errorf("has(%d) = true after reset", cpu)
		}
	}
}

// TestSharerInvalAcrossWords drives the >64-sharer case end to end: on a
// 256-vCPU machine, readers on CPUs spanning all four bitset words share one
// line, and the next write must observe every one of them in its
// invalidation charge.
func TestSharerInvalAcrossWords(t *testing.T) {
	mach := topo.DeepServer256()
	lat := DefaultLatency(mach.Arch)
	m := New(Config{Machine: mach})
	var cell lockapi.Cell
	readers := []int{1, 63, 64, 127, 128, 200, 255}
	if len(readers) > lat.SharerInvalCap {
		t.Fatalf("%d readers exceed SharerInvalCap %d; the charge would be capped", len(readers), lat.SharerInvalCap)
	}
	var writeCost int64
	m.Spawn(0, func(p *Proc) {
		p.Store(&cell, 1, lockapi.Relaxed) // take ownership
		p.Work(1000)                       // let every reader join the sharer set
		t0 := p.Time()
		p.Store(&cell, 2, lockapi.Relaxed)
		writeCost = p.Time() - t0
	})
	for _, cpu := range readers {
		m.Spawn(cpu, func(p *Proc) {
			p.Work(100) // after the first store
			p.Load(&cell, lockapi.Relaxed)
		})
	}
	res := m.Run(0)
	if res.Deadlock {
		t.Fatal("unexpected deadlock")
	}
	// The second store is by the owner (Hit, no upgrade fetch) plus one
	// SharerInval per reader; any reader lost to a truncated bitset word
	// would shrink the charge.
	want := lat.Hit + int64(len(readers))*lat.SharerInval
	if writeCost != want {
		t.Fatalf("write over %d cross-word sharers cost %d, want %d", len(readers), writeCost, want)
	}
}

// TestScaleDeterminism pins a full-machine 1024-vCPU run operation for
// operation: its event count and total ops are fixed numbers, so a change
// that moves the schedule fails here even when it is deterministic. This is
// the deep-topology extension of the golden-SHA pins.
func TestScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-vCPU run in -short mode")
	}
	const wantEvents, wantOps = 12705, 10770
	m := New(Config{Machine: topo.DeepServer1024(), Seed: 7, JitterNS: 3})
	l := locks.MustType("mcs").New()
	var shared lockapi.Cell
	n := 1024
	procs := make([]*Proc, n)
	for j := 0; j < n; j++ {
		ctx := l.NewCtx()
		procs[j] = m.Spawn(j, func(p *Proc) {
			for !p.Expired() {
				l.Acquire(p, ctx)
				p.Add(&shared, 1, lockapi.Relaxed)
				l.Release(p, ctx)
				p.Work(500)
			}
		})
	}
	res := m.Run(150_000)
	var ops uint64
	for _, p := range procs {
		ops += p.Ops
	}
	if res.Events != wantEvents || ops != wantOps {
		t.Fatalf("1024-vCPU run: events %d, ops %d; want %d, %d", res.Events, ops, wantEvents, wantOps)
	}
}
