package faultinject

import (
	"reflect"
	"testing"
)

// drain pulls n decisions per CPU in round-robin order.
func drain(s *Schedule, cpus []int, n int) []Decision {
	var out []Decision
	for i := 0; i < n; i++ {
		for _, c := range cpus {
			out = append(out, s.Next(c))
		}
	}
	return out
}

func TestCompileDeterministic(t *testing.T) {
	cpus := []int{0, 16, 32, 48}
	for _, name := range Names() {
		a := Compile(MustByName(name), 42, cpus)
		b := Compile(MustByName(name), 42, cpus)
		da, db := drain(a, cpus, 500), drain(b, cpus, 500)
		if !reflect.DeepEqual(da, db) {
			t.Errorf("plan %q: same seed produced different schedules", name)
		}
	}
}

func TestCompileCPUOrderIrrelevant(t *testing.T) {
	fwd := []int{0, 16, 32, 48}
	rev := []int{48, 32, 16, 0}
	a := Compile(MustByName("mixed"), 7, fwd)
	b := Compile(MustByName("mixed"), 7, rev)
	// Per-CPU sequences must match regardless of Compile input order.
	for _, c := range fwd {
		for i := 0; i < 300; i++ {
			da, db := a.Next(c), b.Next(c)
			if da != db {
				t.Fatalf("cpu %d iter %d: %+v != %+v across permuted Compile", c, i, da, db)
			}
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	cpus := []int{0, 1, 2, 3}
	a := drain(Compile(MustByName("mixed"), 1, cpus), cpus, 500)
	b := drain(Compile(MustByName("mixed"), 2, cpus), cpus, 500)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical mixed schedules")
	}
}

func TestNonePlanInjectsNothing(t *testing.T) {
	cpus := []int{0, 1}
	s := Compile(MustByName("none"), 3, cpus)
	for _, d := range drain(s, cpus, 100) {
		if d != (Decision{}) {
			t.Fatalf("none plan produced a fault: %+v", d)
		}
	}
}

func TestVictimCountRespected(t *testing.T) {
	cpus := []int{0, 1, 2, 3, 4, 5, 6, 7}
	plan := &Plan{Name: "v2", Faults: []Fault{{Kind: Preempt, Every: 1, Duration: 100, Victims: 2}}}
	s := Compile(plan, 9, cpus)
	hit := map[int]bool{}
	for i := 0; i < 50; i++ {
		for _, c := range cpus {
			if s.Next(c).MidCS > 0 {
				hit[c] = true
			}
		}
	}
	if len(hit) != 2 {
		t.Fatalf("Victims=2 but %d CPUs were preempted: %v", len(hit), hit)
	}
}

func TestEveryControlsRate(t *testing.T) {
	cpus := []int{0}
	plan := &Plan{Name: "e10", Faults: []Fault{{Kind: Stall, Every: 10, Duration: 100}}}
	s := Compile(plan, 11, cpus)
	fires := 0
	const iters = 1000
	for i := 0; i < iters; i++ {
		if s.Next(0).PreStall > 0 {
			fires++
		}
	}
	if fires != iters/10 {
		t.Fatalf("Every=10 fired %d times in %d iterations, want %d", fires, iters, iters/10)
	}
}

func TestDurationSpreadBounded(t *testing.T) {
	cpus := []int{0}
	const dur = 1000
	plan := &Plan{Name: "d", Faults: []Fault{{Kind: Preempt, Every: 1, Duration: dur}}}
	s := Compile(plan, 13, cpus)
	for i := 0; i < 500; i++ {
		d := s.Next(0).MidCS
		if d < dur-dur/4 || d > dur+dur/4 {
			t.Fatalf("duration %d outside ±25%% of %d", d, dur)
		}
	}
}

func TestAbandonDecision(t *testing.T) {
	cpus := []int{0}
	plan := &Plan{Name: "a", Faults: []Fault{{Kind: Abandon, Every: 1, Attempts: 5}}}
	s := Compile(plan, 17, cpus)
	d := s.Next(0)
	if !d.Abandon || d.AbandonAttempts != 5 {
		t.Fatalf("abandon decision = %+v, want Abandon with 5 attempts", d)
	}
}

func TestUnknownCPUIsZero(t *testing.T) {
	s := Compile(MustByName("mixed"), 19, []int{0, 1})
	if d := s.Next(99); d != (Decision{}) {
		t.Fatalf("unknown CPU got a fault: %+v", d)
	}
}

func TestPresetNamesResolve(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("expected >= 5 presets, got %v", names)
	}
	for _, n := range names {
		if _, ok := ByName(n); !ok {
			t.Errorf("preset %q in Names() but not resolvable", n)
		}
	}
	if _, ok := ByName("no-such-plan"); ok {
		t.Error("bogus name resolved")
	}
}
