// Package faultinject defines the fault plans of the robustness harness:
// declarative descriptions of the adversity a lock workload runs under —
// lock-holder preemption, per-CPU stalls, critical-section jitter, and
// abandoned (bounded) acquires — plus the deterministic, seeded schedule
// that realizes a plan for a concrete set of CPUs.
//
// The package is backend-agnostic: it draws no time and performs no waiting
// itself. A Schedule answers, per worker iteration, "what misfortune happens
// now" (a Decision); internal/workload, on memsim, is what turns a
// Decision into simulator preemptions, stalls and abandoned acquires. The
// figures' chaos experiment sweeps every preset across the lock catalog,
// and the collapse experiment runs the oversubscribed one.
//
// # Determinism
//
// Compile derives every random choice from (plan, seed, cpus) through
// per-CPU SplitMix64 streams (internal/xrand), keyed by the CPU's *rank* in
// the Compile call rather than global state. Two Schedules compiled with the
// same inputs therefore produce identical Decision sequences, regardless of
// what any other schedule or simulator consumed — the property the chaos
// sweep's byte-identical CSV rests on.
package faultinject

import (
	"fmt"
	"sort"
	"strings"

	"github.com/clof-go/clof/internal/xrand"
)

// Kind enumerates the fault classes.
type Kind int

const (
	// Preempt suspends the victim CPU *inside* the critical section
	// (lock-holder preemption): every waiter is stuck behind a descheduled
	// owner for Duration.
	Preempt Kind = iota
	// Stall suspends the victim CPU outside the critical section for
	// Duration (a descheduled or throttled core that holds no lock).
	Stall
	// Jitter inflates the victim's critical-section length by a random
	// amount in [0, Duration] (cache misses, interrupts taken while
	// holding the lock).
	Jitter
	// Abandon converts the victim's acquisition into a bounded TryAcquire
	// loop of Attempts tries; on failure the iteration is abandoned
	// (trylock callers that give up — the paper's locks must tolerate
	// waiters that vanish).
	Abandon
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Preempt:
		return "preempt"
	case Stall:
		return "stall"
	case Jitter:
		return "jitter"
	default:
		return "abandon"
	}
}

// Fault is one fault source within a plan.
type Fault struct {
	Kind Kind
	// Every triggers the fault once per Every iterations of a victim CPU
	// (jittered by the schedule's stream so victims do not stay in
	// lock-step). Every <= 0 means every iteration.
	Every int
	// Duration is the fault length in virtual nanoseconds (Preempt, Stall)
	// or the jitter bound (Jitter). Ignored by Abandon.
	Duration int64
	// Victims bounds how many CPUs the fault targets (chosen by seeded
	// shuffle of the compiled CPU set). 0 means all CPUs.
	Victims int
	// Attempts is the bounded-acquire budget for Abandon (default 3).
	Attempts int
}

// Plan is a named set of fault sources applied together.
type Plan struct {
	Name   string
	Faults []Fault
}

// String renders a compact description, e.g.
// "holder-preempt{preempt/50:60000ns/2cpus}".
func (pl *Plan) String() string {
	parts := make([]string, len(pl.Faults))
	for i, f := range pl.Faults {
		parts[i] = fmt.Sprintf("%s/%d:%dns/%dcpus", f.Kind, f.Every, f.Duration, f.Victims)
	}
	return pl.Name + "{" + strings.Join(parts, ",") + "}"
}

// Decision is what a Schedule injects into one worker iteration. The zero
// value means "no fault", so drivers may consult a nil-safe zero Decision on
// the unfaulted path without branching on plan presence.
type Decision struct {
	// PreStall suspends the CPU for this many virtual ns before it attempts
	// the lock (Kind Stall).
	PreStall int64
	// MidCS suspends the CPU for this many virtual ns while it holds the
	// lock (Kind Preempt — lock-holder preemption).
	MidCS int64
	// CSJitter lengthens the critical section by this many virtual ns
	// (Kind Jitter).
	CSJitter int64
	// Abandon asks the driver to use a bounded TryAcquire of
	// AbandonAttempts tries and to skip the iteration when it fails.
	Abandon         bool
	AbandonAttempts int
}

// compiled is one fault source bound to its victims and stream.
type compiled struct {
	fault   Fault
	victim  map[int]bool
	nextAt  map[int]int64 // iteration (per CPU) at which the fault next fires
	periods map[int]*xrand.Rand
}

// Schedule realizes a Plan for a concrete CPU set. Not safe for concurrent
// use: consult it from one goroutine (memsim's workers interleave
// deterministically on one OS thread).
type Schedule struct {
	plan    *Plan
	sources []*compiled
	iter    map[int]int64
}

// Compile binds plan to the given CPUs with all randomness derived from
// seed. The cpus slice is not retained; its order does not matter (victim
// choice keys off a sorted copy, so permuted inputs compile identically).
func Compile(plan *Plan, seed uint64, cpus []int) *Schedule {
	sorted := append([]int(nil), cpus...)
	sort.Ints(sorted)
	root := xrand.New(seed ^ 0xFA017)
	s := &Schedule{plan: plan, iter: make(map[int]int64, len(sorted))}
	for _, c := range sorted {
		s.iter[c] = 0
	}
	for _, f := range plan.Faults {
		src := &compiled{
			fault:   f,
			victim:  make(map[int]bool, len(sorted)),
			nextAt:  make(map[int]int64, len(sorted)),
			periods: make(map[int]*xrand.Rand, len(sorted)),
		}
		// Victim selection: seeded Fisher–Yates over the sorted CPUs.
		stream := root.Split()
		perm := append([]int(nil), sorted...)
		for i := len(perm) - 1; i > 0; i-- {
			j := stream.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		n := f.Victims
		if n <= 0 || n > len(perm) {
			n = len(perm)
		}
		for _, c := range perm[:n] {
			src.victim[c] = true
		}
		for _, c := range sorted {
			r := stream.Split()
			src.periods[c] = r
			src.nextAt[c] = src.firstAt(c, r)
		}
		s.sources = append(s.sources, src)
	}
	return s
}

// period returns the fault's effective trigger period.
func (c *compiled) period() int64 {
	if c.fault.Every <= 0 {
		return 1
	}
	return int64(c.fault.Every)
}

// firstAt draws the first trigger iteration for cpu: uniform in [0, period)
// so victims with equal periods do not fire in phase.
func (c *compiled) firstAt(cpu int, r *xrand.Rand) int64 {
	p := c.period()
	if p == 1 {
		return 0
	}
	return r.Int63n(p)
}

// Next returns the Decision for cpu's next iteration and advances the
// schedule. Unknown CPUs (not in the Compile set) get the zero Decision.
func (s *Schedule) Next(cpu int) Decision {
	it, known := s.iter[cpu]
	if !known {
		return Decision{}
	}
	s.iter[cpu] = it + 1
	var d Decision
	for _, src := range s.sources {
		if !src.victim[cpu] || it < src.nextAt[cpu] {
			continue
		}
		r := src.periods[cpu]
		src.nextAt[cpu] = it + src.period()
		switch src.fault.Kind {
		case Preempt:
			d.MidCS += durationOf(src.fault, r)
		case Stall:
			d.PreStall += durationOf(src.fault, r)
		case Jitter:
			if src.fault.Duration > 0 {
				d.CSJitter += r.Int63n(src.fault.Duration + 1)
			}
		case Abandon:
			d.Abandon = true
			a := src.fault.Attempts
			if a <= 0 {
				a = 3
			}
			if a > d.AbandonAttempts {
				d.AbandonAttempts = a
			}
		}
	}
	return d
}

// durationOf draws a fault duration: fixed Duration, ±25% spread from the
// per-CPU stream so repeated hits differ.
func durationOf(f Fault, r *xrand.Rand) int64 {
	if f.Duration <= 0 {
		return 0
	}
	spread := f.Duration / 4
	if spread == 0 {
		return f.Duration
	}
	return f.Duration - spread + r.Int63n(2*spread+1)
}

// Plan returns the plan this schedule was compiled from.
func (s *Schedule) Plan() *Plan { return s.plan }
