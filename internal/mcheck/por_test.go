package mcheck

import (
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/lockapi"
)

// porPair checks one program under both searches and pins the equivalence
// contract: identical verdict class and States(POR) <= States(exhaustive).
// Witnesses (and, for multi-bug programs, the specific violation found
// first) may legitimately differ between the searches; the verdict may not.
func porPair(t *testing.T, name string, prog Program, cfg Config) (exh, por Result) {
	t.Helper()
	cfg.POR = false
	exh = Check(prog, cfg)
	cfg.POR = true
	por = Check(prog, cfg)
	if !por.Reduced {
		t.Fatalf("%s: POR search did not run (Reduced=false)", name)
	}
	if exh.OK != por.OK || (exh.Violation == "") != (por.Violation == "") {
		t.Fatalf("%s: verdict mismatch: exhaustive OK=%v %q, POR OK=%v %q",
			name, exh.OK, exh.Violation, por.OK, por.Violation)
	}
	if por.States > exh.States {
		t.Fatalf("%s: POR explored more states than exhaustive (%d > %d)",
			name, por.States, exh.States)
	}
	t.Logf("%s: states %d -> %d (%.1fx), executions %d -> %d",
		name, exh.States, por.States,
		float64(exh.States)/float64(max(por.States, 1)), exh.Executions, por.Executions)
	return exh, por
}

// TestPORMatchesExhaustiveBasics runs the base-step lock set under both
// searches across all three memory models. The SC legs run 2 iterations;
// the store-buffer legs run 1: without fingerprint dedup the reduced
// search must execute every Mazurkiewicz trace, and flush interleavings
// multiply traces far beyond the deduped state count for queue locks
// (MCS at 2x2 TSO needs minutes of executions for a 1.1x state
// win), so POR on store-buffer models is verified for equivalence, not
// advertised as a speedup — see the Config.POR doc.
func TestPORMatchesExhaustiveBasics(t *testing.T) {
	for _, name := range []string{"tas", "ttas", "bo", "tkt", "mcs", "clh", "hem", "hem-ctr", "qspin"} {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, leg := range []struct {
				mode  Mode
				iters int
			}{{SC, 2}, {TSO, 1}, {WMM, 1}} {
				exh, _ := porPair(t, name+"/"+leg.mode.String(),
					LockProgram(name, 2, leg.iters, lk(name)), Config{Mode: leg.mode})
				if !exh.OK {
					t.Fatalf("%s/%v: baseline unexpectedly broken: %s", name, leg.mode, exh.Violation)
				}
			}
		})
	}
}

// TestPORMatchesExhaustiveNegatives pins that the reduced search still finds
// every violation class the exhaustive search finds: mutual exclusion,
// deadlock (both the inverted-release CLoF bug and a lock-order cycle), the
// weak-memory barrier bug, and bounded-bypass starvation.
func TestPORMatchesExhaustiveNegatives(t *testing.T) {
	cases := []struct {
		name string
		prog Program
		cfg  Config
	}{
		{"mutex-violation", LockProgram("none", 2, 1, func() lockapi.Lock { return noLock{} }), Config{Mode: SC}},
		{"release-order-deadlock", InductionProgram(2, true, "mcs", "mcs"), Config{Mode: SC}},
		{"broken-ticket-wmm", BrokenTicketProgram(2, 1), Config{Mode: WMM}},
		{"lock-order-cycle", DeadlockProgram("ab-ba", [][]string{{"a", "b"}, {"b", "a"}}), Config{Mode: SC}},
		{"ttas-starvation", LockProgram("ttas", 2, 3, lk("ttas")), Config{Mode: SC, FairnessK: 2}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			exh, por := porPair(t, c.name, c.prog, c.cfg)
			if exh.OK || por.OK {
				t.Fatalf("expected a violation (exhaustive %q, POR %q)", exh.Violation, por.Violation)
			}
		})
	}
}

// TestPORCatalogEquivalence2T is the equivalence matrix over the full lock
// catalog at 2 threads on the verification machine: every entry must reach
// the same verdict under both searches, with the reduced search visiting no
// more states. Its last row is the store's optimistic read (StoreProgram,
// seq:tkt, two readers of one shard), whose counts it pins.
func TestPORCatalogEquivalence2T(t *testing.T) {
	mach := VerifyMachine()
	for _, e := range catalog.Locks() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			mk := func() lockapi.Lock { return e.New(mach) }
			exh, _ := porPair(t, e.Name, LockProgram(e.Name, 2, 1, mk), Config{Mode: SC})
			if !exh.OK {
				t.Fatalf("catalog baseline unexpectedly broken: %s", exh.Violation)
			}
		})
	}
	t.Run("store/seq:tkt/2x1", func(t *testing.T) {
		exh, por := porPair(t, "store/seq:tkt/2x1", StoreProgram("seq:tkt", 2, 1, seqTkt), Config{Mode: SC})
		if !exh.OK {
			t.Fatalf("store read unexpectedly broken: %s", exh.Violation)
		}
		if exh.States != 21046 || por.States != 2725 {
			t.Errorf("states %d -> %d, want 21046 -> 2725", exh.States, por.States)
		}
	})
}

// TestPORFairnessEquivalence runs the bounded-bypass check under both
// searches: the monitor footprint (mon bit) must keep fairness verdicts
// aligned — ttas starves, tkt does not.
func TestPORFairnessEquivalence(t *testing.T) {
	cfg := Config{Mode: SC, FairnessK: 2}
	exh, _ := porPair(t, "ttas/K=2", LockProgram("ttas", 2, 3, lk("ttas")), cfg)
	if exh.OK || !IsBypassViolation(exh) {
		t.Fatalf("ttas: expected bypass violation, got OK=%v %q", exh.OK, exh.Violation)
	}
	exh, _ = porPair(t, "tkt/K=2", LockProgram("tkt", 2, 3, lk("tkt")), cfg)
	if !exh.OK {
		t.Fatalf("tkt: expected fair, got %s", exh.Violation)
	}
}

// TestPORInductionReduction is the acceptance gate for the reduced search:
// the 3-thread CLoF induction step must verify with at least 2x fewer
// states than exhaustive exploration, with the same verdict.
func TestPORInductionReduction(t *testing.T) {
	prog := InductionProgram(1, false, "tkt", "tkt")
	exh, por := porPair(t, "clof:tkt-tkt/3t", prog, Config{Mode: SC})
	if !exh.OK {
		t.Fatalf("induction step unexpectedly broken: %s", exh.Violation)
	}
	if exh.States < 2*por.States {
		t.Fatalf("POR reduction below 2x on the 3-thread CLoF composition: exhaustive %d states, POR %d",
			exh.States, por.States)
	}
}

// TestPORDeterministic pins bitwise-reproducible reduced results.
func TestPORDeterministic(t *testing.T) {
	cfg := Config{Mode: SC, POR: true}
	a := Check(LockProgram("mcs", 2, 2, lk("mcs")), cfg)
	b := Check(LockProgram("mcs", 2, 2, lk("mcs")), cfg)
	if a.States != b.States || a.Executions != b.Executions || a.Violation != b.Violation {
		t.Fatalf("nondeterministic POR results: %+v vs %+v", a, b)
	}
}

// TestPORStaleFallback pins the documented fallback: the stale-load
// relaxation forks transitions mid-execution, so Config.POR is ignored and
// the exhaustive search runs (Reduced=false).
func TestPORStaleFallback(t *testing.T) {
	res := Check(StoreProgram("seq:tkt", 1, 1, seqTkt), Config{Mode: WMM, StaleLoads: true, POR: true})
	if res.Reduced {
		t.Fatal("POR must fall back to exhaustive search under StaleLoads")
	}
	if !res.OK {
		t.Fatalf("fenced seqlock unexpectedly broken: %s", res.Violation)
	}
}
