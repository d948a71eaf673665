package faultinject

import (
	"fmt"
	"sort"
)

// Preset plans, swept by the figures' chaos experiment. Durations are
// virtual nanoseconds, sized against the paper-default LevelDB workload
// (CS ≈ 300ns, NCS ≈ 2400ns): a preemption of 60µs ≈ 200 critical
// sections, which is the order of a scheduling quantum relative to a
// spinlock hold time.
var presets = map[string]func() *Plan{
	// none is the control: every lock must behave identically to an
	// unfaulted run (the zero Decision injects nothing).
	"none": func() *Plan {
		return &Plan{Name: "none"}
	},
	// holder-preempt deschedules two lock holders mid-critical-section
	// every ~50 acquisitions: Dice & Kogan's pathological case for queue
	// locks, where the whole queue convoys behind the preempted owner.
	"holder-preempt": func() *Plan {
		return &Plan{Name: "holder-preempt", Faults: []Fault{
			{Kind: Preempt, Every: 50, Duration: 60_000, Victims: 2},
		}}
	},
	// cpu-stall freezes a quarter of the CPUs outside the lock every ~20
	// iterations: throughput should degrade proportionally, not collapse.
	"cpu-stall": func() *Plan {
		return &Plan{Name: "cpu-stall", Faults: []Fault{
			{Kind: Stall, Every: 20, Duration: 30_000, Victims: 0},
		}}
	},
	// cs-jitter inflates every fourth critical section by up to 3µs (10×
	// the nominal CS): models interrupts and cache misses under the lock.
	"cs-jitter": func() *Plan {
		return &Plan{Name: "cs-jitter", Faults: []Fault{
			{Kind: Jitter, Every: 4, Duration: 3_000, Victims: 0},
		}}
	},
	// abandon turns a third of the CPUs into trylock callers that give up
	// after 3 attempts: exercises the no-residual-state contract of
	// TryAcquire under contention.
	"abandon": func() *Plan {
		return &Plan{Name: "abandon", Faults: []Fault{
			{Kind: Abandon, Every: 3, Attempts: 3, Victims: 0},
		}}
	},
	// oversubscribed models threads ≫ cores: with more runnable threads
	// than physical cores every CPU periodically loses its timeslice, and
	// losing it *inside* the critical section is what collapses unrestricted
	// locks (Dice & Kogan). Every CPU is a victim, preempted mid-CS for a
	// scheduling quantum (~60µs ≈ 200 LevelDB critical sections) about once
	// per 40 acquisitions — pair with topo.OversubscribedServer in the
	// figures "collapse" experiment.
	"oversubscribed": func() *Plan {
		return &Plan{Name: "oversubscribed", Faults: []Fault{
			{Kind: Preempt, Every: 40, Duration: 60_000, Victims: 0},
		}}
	},
	// mixed is all of the above at once — the "as many scenarios as you
	// can imagine" stress.
	"mixed": func() *Plan {
		return &Plan{Name: "mixed", Faults: []Fault{
			{Kind: Preempt, Every: 80, Duration: 60_000, Victims: 2},
			{Kind: Stall, Every: 40, Duration: 30_000, Victims: 4},
			{Kind: Jitter, Every: 8, Duration: 3_000, Victims: 0},
			{Kind: Abandon, Every: 6, Attempts: 3, Victims: 2},
		}}
	},
}

// ByName returns a fresh copy of the named preset plan.
func ByName(name string) (*Plan, bool) {
	f, ok := presets[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// MustByName is ByName that panics on unknown names.
func MustByName(name string) *Plan {
	p, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("faultinject: unknown plan %q", name))
	}
	return p
}

// Names lists the preset plans in sorted order.
func Names() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
