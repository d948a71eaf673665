// Package mcheck is an exhaustive-interleaving model checker for lock
// algorithms written against lockapi.Proc. It is this repository's
// substitute for the paper's TLA+/TLC and GenMC/VSync toolchain (§4.2):
// the same properties are checked — mutual exclusion, deadlock freedom,
// spinloop termination, and (per program) data invariants and bounded
// bypass — on the same small thread counts, including the CLoF induction
// step and the negative results (inverted release order, missing release
// barrier, TTAS unfairness).
//
// # Exploration
//
// The checker performs stateless depth-first search over schedules: every
// enabled choice (run a thread's next shared-memory operation, or flush one
// store-buffer entry) forks the search. A search keeps one live program
// instance: it reaches a node's first child by applying one choice to it, and
// replays the child's whole prefix on a fresh instance only when it
// backtracks to a later sibling. Two reductions keep this tractable:
//
//   - Await collapsing: a Spin() after a memory operation turns the spin
//     loop into an await — the thread is disabled until the watched cell is
//     written, so failed polls are never scheduled. A spin loop that can
//     never be satisfied therefore surfaces as a deadlock, which is exactly
//     the spinloop-termination property.
//   - State deduplication: a 64+64-bit fingerprint of (per-thread history,
//     status, buffers; per-cell last-writer and value) prunes re-explored
//     states. Threads are deterministic, so equal fingerprints imply equal
//     futures. Pruning on a hash admits a (vanishingly unlikely) collision;
//     unlike GenMC we do not claim certified soundness, and we say so here
//     rather than in fine print.
//
// # Memory models
//
// SC interleaves operations atomically. TSO gives every thread a FIFO store
// buffer with nondeterministic flushes (store→load reordering). WMM
// additionally lets Relaxed stores flush out of order — only Release stores
// wait for their predecessors — which is the Armv8-style behavior that
// breaks under-fenced locks (§3.3).
//
// Load reordering is opt-in via Config.StaleLoads (WMM only): a Relaxed load
// of a cell the thread has read before may nondeterministically return the
// thread's last-seen value instead of the current one — the two-value
// stale-read approximation of Armv8 load buffering. It respects per-location
// coherence (a thread never travels backwards past its own last observation)
// and is discharged by Acquire/SeqCst loads, non-Relaxed fences, and RMWs,
// which discard the thread's stale view. This is the relaxation that catches
// under-fenced *readers* — seqlock validation without its Acquire fence, on
// the store's own optimistic read (StoreProgram) — where the store-ordering
// models cannot: the bug is a load observing the past, not a store arriving
// late. Programs whose bugs are store-ordering bugs do not need it, and it
// is off by default because each possible stale read forks the search.
package mcheck

import (
	"fmt"

	"github.com/clof-go/clof/internal/lockapi"
)

// Mode selects the memory model.
type Mode int

const (
	// SC is sequential consistency: operations take effect atomically in
	// schedule order.
	SC Mode = iota
	// TSO adds per-thread FIFO store buffers (x86-like).
	TSO
	// WMM additionally allows Relaxed stores to flush out of order;
	// Release stores still wait for all earlier buffered stores
	// (Armv8-store-ordering-like).
	WMM
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SC:
		return "sc"
	case TSO:
		return "tso"
	default:
		return "wmm"
	}
}

// Config bounds the exploration.
type Config struct {
	Mode Mode
	// MaxDepth bounds schedule length; exceeding it reports potential
	// non-termination. Default 4000.
	MaxDepth int
	// MaxStates budgets distinct explored states (default 2,000,000);
	// exceeding it sets Result.Truncated.
	MaxStates int
	// FairnessK, when > 0, reports a violation if some thread is bypassed
	// K times while continuously waiting (bounded-bypass check). The
	// per-thread bypass counters become part of the state fingerprint, so
	// expect a correspondingly larger state space.
	FairnessK int
	// StaleLoads, under WMM, additionally lets a Relaxed load return the
	// thread's last-seen value of the cell instead of the current one (see
	// the package comment, "Memory models"). Per-thread stale views join the
	// state fingerprint, so expect a larger state space. Ignored under
	// SC/TSO, where loads are always current.
	StaleLoads bool
	// POR enables dynamic partial-order reduction (see por.go): same
	// verdicts as exhaustive exploration over fewer states, at the price
	// of giving up state-fingerprint pruning (incompatible with
	// backtrack-set computation) — witnesses may differ between the two
	// searches. The reduction pays off on SC compositions (independent
	// per-level lock cells commute); under TSO/WMM the stateless search
	// must execute every Mazurkiewicz trace, which for queue locks can
	// exceed the deduped exhaustive search's execution count — verdicts
	// stay identical, wall time may not improve. Ignored (exhaustive
	// fallback) when StaleLoads is active, whose mid-operation forks the
	// footprint protocol does not cover.
	POR bool
}

// Result summarizes a check.
type Result struct {
	// OK is true when no violation was found and the search was not
	// truncated.
	OK bool
	// Violation describes the first property violation found ("" if none).
	Violation string
	// Witness is the schedule prefix leading to the violation.
	Witness []Choice
	// Executions counts the schedule prefixes executed: one per search node
	// visited, whether reached by one step or by a replay (1 for
	// CheckGuided, which executes one schedule).
	Executions int
	// States is the number of distinct states explored.
	States int
	// MaxDepthSeen is the longest schedule explored.
	MaxDepthSeen int
	// Truncated reports that a budget was exhausted before exhaustion of
	// the state space.
	Truncated bool
	// Reduced reports that the partial-order-reduced search produced this
	// result (Config.POR honored; false on the StaleLoads fallback).
	Reduced bool
}

// Choice is one scheduling decision: run thread TID's pending operation, or
// (Flush >= 0) flush that index of TID's store buffer. Stale resolves a
// pending stale-read fork (Config.StaleLoads): true delivers the thread's
// last-seen value, false the current one.
type Choice struct {
	TID   int
	Flush int
	Stale bool
}

// String renders the choice compactly for counterexample traces.
func (c Choice) String() string {
	if c.Flush >= 0 {
		return fmt.Sprintf("t%d.flush[%d]", c.TID, c.Flush)
	}
	if c.Stale {
		return fmt.Sprintf("t%d.stale", c.TID)
	}
	return fmt.Sprintf("t%d", c.TID)
}

// Program is a finite concurrent program to verify.
type Program struct {
	Name string
	// Make builds a fresh instance: one body per thread. Bodies perform
	// all shared accesses through the provided Proc and must be
	// deterministic given their observation sequence.
	Make func() []func(p *Proc)
	// Final, if non-nil, validates the quiesced final state (all threads
	// done, all buffers flushed) and returns a violation message or "".
	Final func(read func(c *lockapi.Cell) uint64) string
}

// withDefaults fills in the budgets every entry point shares.
func (cfg Config) withDefaults() Config {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 4000
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 2_000_000
	}
	return cfg
}

// Check explores prog under cfg.
func Check(prog Program, cfg Config) Result {
	c := &checker{live: live{prog: prog, cfg: cfg.withDefaults()}, seen: make(map[fingerprint]struct{})}
	defer c.shutdown()
	reduced := cfg.POR && !(cfg.StaleLoads && cfg.Mode == WMM)
	if reduced {
		(&porChecker{checker: c}).explore(nil)
	} else {
		c.explore(nil)
	}
	res := Result{
		Violation:    c.violation,
		Witness:      c.witness,
		Executions:   c.execs,
		States:       len(c.seen),
		MaxDepthSeen: c.maxDepth,
		Truncated:    c.truncated,
		Reduced:      reduced,
	}
	res.OK = res.Violation == "" && !res.Truncated
	return res
}

// CheckGuided runs ONE execution of prog under an explicit scheduling
// policy instead of exploring all interleavings: at every step, pick
// receives the step index and the enabled transitions and returns the one
// to take (it must return an element of enabled). The run ends at the first
// violation, at quiescence (all threads done, Final validated), or at
// cfg.MaxDepth.
//
// This is the tool for properties whose witness schedules exhaustive search
// cannot reach within budget. A bypass/starvation witness needs the victim
// to announce its wait *before* the bypassers run, but depth-first search
// backtracks from the end of the schedule, so witness prefixes — which
// deviate from the default exploration order at the very beginning — are
// the last thing it visits. A guided run demonstrates the witness directly
// on the same executor and monitors as Check: the schedule is validated
// step by step, and the reported Violation comes from the same bounded-
// bypass/exclusion/deadlock machinery, so a guided conviction is exactly as
// trustworthy as an explored one — it just does not claim exhaustiveness.
func CheckGuided(prog Program, cfg Config, pick func(step int, enabled []Choice) Choice) Result {
	l := &live{prog: prog, cfg: cfg.withDefaults()}
	defer l.shutdown()
	var schedule []Choice
	for {
		enabled := l.moveTo(schedule).enabledChoices()
		res := Result{Executions: 1, MaxDepthSeen: len(schedule)}
		if msg, end := l.verdict(enabled); end {
			res.OK, res.Violation = msg == "", msg
			if msg != "" {
				res.Witness = schedule
			}
			return res
		}
		if len(schedule) >= l.cfg.MaxDepth {
			res.Truncated = true
			return res
		}
		schedule = append(schedule, pick(len(schedule), enabled))
	}
}

// RoundRobin is a CheckGuided policy that rotates fairly through the
// enabled threads: each step runs the enabled choice with the smallest
// thread id strictly greater (modulo wrap-around) than the last scheduled
// one, preferring a thread's pending operation over its buffer flushes.
// Threads parked in an await (spin loop on an unchanged cell) are not
// enabled and are skipped automatically — so a round-robin run of a lock
// program is the canonical "fair scheduler" execution, and a starvation
// found under it is a starvation the scheduler cannot be blamed for.
func RoundRobin() func(step int, enabled []Choice) Choice {
	last := -1
	return func(_ int, enabled []Choice) Choice {
		best := enabled[0]
		bestKey := -1
		for _, ch := range enabled {
			if ch.Flush >= 0 {
				continue
			}
			key := ch.TID - last - 1
			if key < 0 {
				key += 1 << 30
			}
			if bestKey == -1 || key < bestKey {
				best, bestKey = ch, key
			}
		}
		if best.Flush < 0 {
			last = best.TID
		}
		return best
	}
}

type fingerprint [2]uint64

// checker holds what both searches share: the live instance, the distinct
// states seen, the counters Result reports, and the first violation.
type checker struct {
	live
	seen      map[fingerprint]struct{}
	execs     int
	maxDepth  int
	violation string
	witness   []Choice
	truncated bool
}

// visit moves the live instance to the search node prefix and counts the
// node. It returns the instance and its enabled choices, or a nil instance
// when the schedule ends there, having recorded any violation.
func (c *checker) visit(prefix []Choice) (*exec, []Choice) {
	c.execs++
	c.maxDepth = max(c.maxDepth, len(prefix))
	ex := c.moveTo(prefix)
	enabled := ex.enabledChoices()
	if msg, end := c.verdict(enabled); end {
		if msg != "" {
			c.fail(msg, prefix)
		}
		return nil, nil
	}
	return ex, enabled
}

// record adds fp to the states seen and reports whether it is new. A new
// state beyond MaxStates truncates the search.
func (c *checker) record(fp fingerprint) bool {
	if _, ok := c.seen[fp]; ok {
		return false
	}
	c.seen[fp] = struct{}{}
	c.truncated = len(c.seen) > c.cfg.MaxStates
	return true
}

// fail records the violation and the schedule that reached it.
func (c *checker) fail(msg string, prefix []Choice) {
	c.violation = msg
	c.witness = append([]Choice(nil), prefix...)
}

// explore is the exhaustive search: depth-first over every enabled choice,
// pruning states whose fingerprint it has seen.
func (c *checker) explore(prefix []Choice) {
	if c.violation != "" || c.truncated {
		return
	}
	ex, enabled := c.visit(prefix)
	if ex == nil || !c.record(ex.fingerprint()) || c.truncated {
		return
	}
	if len(prefix) >= c.cfg.MaxDepth {
		c.fail("depth limit exceeded (potential non-termination)", prefix)
		return
	}
	for _, ch := range enabled {
		c.explore(append(prefix, ch))
		if c.violation != "" || c.truncated {
			return
		}
	}
}
