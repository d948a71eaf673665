package mcheck

import (
	"sort"
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
)

// TestDeadlockProgramABBA pins the detector on the canonical two-lock
// inversion: it must surface as a deadlock, and the aligned-order control
// must not.
func TestDeadlockProgramABBA(t *testing.T) {
	res := Check(DeadlockProgram("abba", [][]string{{"a", "b"}, {"b", "a"}}), Config{Mode: SC})
	if !strings.Contains(res.Violation, "deadlock") {
		t.Fatalf("ABBA chains: violation = %q, want a deadlock", res.Violation)
	}

	ctrl := Check(DeadlockProgram("aligned", [][]string{{"a", "b"}, {"a", "b"}}), Config{Mode: SC})
	if !ctrl.OK {
		t.Fatalf("aligned chains: violation = %q, want none", ctrl.Violation)
	}
}

// TestDeadlockProgramSelfCycle covers the self-edge shape: a class nested
// inside itself is rendered as two instances taken in opposite orders.
func TestDeadlockProgramSelfCycle(t *testing.T) {
	res := Check(DeadlockProgram("self", [][]string{
		{"c#0", "c#1"}, {"c#1", "c#0"},
	}), Config{Mode: SC})
	if !strings.Contains(res.Violation, "deadlock") {
		t.Fatalf("self-cycle chains: violation = %q, want a deadlock", res.Violation)
	}
}

// TestDeadlockProgramThreeCycle exercises a k=3 rotation.
func TestDeadlockProgramThreeCycle(t *testing.T) {
	res := Check(DeadlockProgram("ring3", [][]string{
		{"a", "b"}, {"b", "c"}, {"c", "a"},
	}), Config{Mode: SC})
	if !strings.Contains(res.Violation, "deadlock") {
		t.Fatalf("3-cycle chains: violation = %q, want a deadlock", res.Violation)
	}
}

// DeadlockProgram builds a cyclic-wait program for the deadlock detector:
// one thread per chain, where thread i acquires the locks named in
// chains[i] in order and releases them in reverse. Locks are plain TAS
// spinlocks keyed by name, shared across chains. For chains generated from
// a k-class cycle — thread i takes cycle[i] then cycle[(i+1) mod k] —
// exhaustive exploration must reach the state where every thread holds its
// first lock and awaits its second, and report it as a deadlock; for
// acyclic chains the check passes. It also supplies POR's lock-order-cycle
// negative case.
func DeadlockProgram(name string, chains [][]string) Program {
	// Deterministic cell allocation order (map iteration would not change
	// the verdict, but keeps traces reproducible).
	var lockNames []string
	seen := map[string]bool{}
	for _, ch := range chains {
		for _, n := range ch {
			if !seen[n] {
				seen[n] = true
				lockNames = append(lockNames, n)
			}
		}
	}
	sort.Strings(lockNames)
	return Program{
		Name: name,
		Make: func() []func(p *Proc) {
			cells := map[string]*lockapi.Cell{}
			for _, n := range lockNames {
				cells[n] = &lockapi.Cell{}
			}
			bodies := make([]func(p *Proc), len(chains))
			for i, ch := range chains {
				locks := make([]*lockapi.Cell, len(ch))
				for j, n := range ch {
					locks[j] = cells[n]
				}
				bodies[i] = func(p *Proc) {
					for _, c := range locks {
						tasLock(p, c)
					}
					for j := len(locks) - 1; j >= 0; j-- {
						tasUnlock(p, locks[j])
					}
				}
			}
			return bodies
		},
	}
}

// tasLock is a minimal test-and-set acquire. A plain function, not a lock
// type: the program models only the acquisition ORDER of the cycle
// under test, and a deliberately tiny primitive keeps the product state
// space small. The failed-CAS path Spins, so a lock that is never released
// parks the thread in an await — which is what lets the checker call the
// stuck state a deadlock instead of exploring the poll loop forever.
func tasLock(p *Proc, c *lockapi.Cell) {
	for {
		if p.Load(c, lockapi.Acquire) == 0 && p.CAS(c, 0, 1, lockapi.Acquire) {
			return
		}
		p.Spin()
	}
}

func tasUnlock(p *Proc, c *lockapi.Cell) {
	p.Store(c, 0, lockapi.Release)
}
