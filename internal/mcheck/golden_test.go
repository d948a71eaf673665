package mcheck

import (
	"fmt"
	"testing"
)

// TestCheckGolden pins the search itself: for a small matrix of programs
// and memory models, the verdict, the violation, the state and execution
// counts, the deepest schedule and the witness length must equal the values
// the checker has always produced. Any change to the executor, the replay
// loop or the fingerprint that moves a count shows up here first.
func TestCheckGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() Result
		want string
	}{
		{"tkt/2x1/SC", check(LockProgram("tkt", 2, 1, lk("tkt")), Config{Mode: SC}),
			`ok=true violation="" states=45 executions=63 depth=12 witness=0`},
		{"mcs/2x1/SC", check(LockProgram("mcs", 2, 1, lk("mcs")), Config{Mode: SC}),
			`ok=true violation="" states=177 executions=247 depth=23 witness=0`},
		{"hem/2x1/SC", check(LockProgram("hem", 2, 1, lk("hem")), Config{Mode: SC}),
			`ok=true violation="" states=123 executions=185 depth=16 witness=0`},
		{"tkt/2x1/TSO", check(LockProgram("tkt", 2, 1, lk("tkt")), Config{Mode: TSO}),
			`ok=true violation="" states=55 executions=87 depth=14 witness=0`},
		{"mcs/2x1/TSO", check(LockProgram("mcs", 2, 1, lk("mcs")), Config{Mode: TSO}),
			`ok=true violation="" states=354 executions=721 depth=28 witness=0`},
		{"hem/2x1/TSO", check(LockProgram("hem", 2, 1, lk("hem")), Config{Mode: TSO}),
			`ok=true violation="" states=305 executions=579 depth=22 witness=0`},
		{"tkt/2x1/WMM", check(LockProgram("tkt", 2, 1, lk("tkt")), Config{Mode: WMM}),
			`ok=true violation="" states=55 executions=87 depth=14 witness=0`},
		{"mcs/2x1/WMM", check(LockProgram("mcs", 2, 1, lk("mcs")), Config{Mode: WMM}),
			`ok=true violation="" states=381 executions=839 depth=28 witness=0`},
		{"hem/2x1/WMM", check(LockProgram("hem", 2, 1, lk("hem")), Config{Mode: WMM}),
			`ok=true violation="" states=325 executions=651 depth=22 witness=0`},
		{"tkt/2x1/SC/POR", check(LockProgram("tkt", 2, 1, lk("tkt")), Config{Mode: SC, POR: true}),
			`ok=true violation="" states=35 executions=39 depth=12 witness=0`},
		{"mcs/2x1/SC/POR", check(LockProgram("mcs", 2, 1, lk("mcs")), Config{Mode: SC, POR: true}),
			`ok=true violation="" states=144 executions=158 depth=23 witness=0`},
		{"hem/2x1/SC/POR", check(LockProgram("hem", 2, 1, lk("hem")), Config{Mode: SC, POR: true}),
			`ok=true violation="" states=79 executions=89 depth=16 witness=0`},
		{"inverted-release/mcs-mcs/SC", check(InductionProgram(2, true, "mcs", "mcs"), Config{Mode: SC}),
			`ok=false violation="deadlock (threads blocked with no enabled transition)" states=23760 executions=36557 depth=117 witness=69`},
		{"relaxed-release/tkt/2x2/WMM", check(BrokenTicketProgram(2, 2), Config{Mode: WMM}),
			`ok=false violation="final state: counter = 3, want 4 (lost update: release barrier too weak?)" states=75 executions=100 depth=30 witness=28`},
		{"seqlock-fenceless/1x1/WMM+stale", check(StoreProgram("seq:tkt", 1, 1, withoutReadFence(seqTkt)), Config{Mode: WMM, StaleLoads: true}),
			`ok=false violation="assertion failed: torn snapshot escaped validation" states=96 executions=155 depth=20 witness=13`},
		{"cr/2x1/SC", check(CRProgram(2, 1, false), Config{Mode: SC}),
			`ok=true violation="" states=19262 executions=33141 depth=61 witness=0`},
		{"cr/2x1/WMM", check(CRProgram(2, 1, false), Config{Mode: WMM}),
			`ok=true violation="" states=20165 executions=35630 depth=61 witness=0`},
		{"guided/cr/3x3/SC/K4", func() Result {
			return CheckGuided(CRProgram(3, 3, false), Config{Mode: SC, FairnessK: 4}, RoundRobin())
		}, `ok=true violation="" states=0 executions=1 depth=230 witness=0`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run()
			got := fmt.Sprintf("ok=%v violation=%q states=%d executions=%d depth=%d witness=%d",
				res.OK, res.Violation, res.States, res.Executions, res.MaxDepthSeen, len(res.Witness))
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// check defers an exhaustive or reduced search of prog under cfg.
func check(prog Program, cfg Config) func() Result {
	return func() Result { return Check(prog, cfg) }
}

// BenchmarkCheck is the checker rung: whole searches taken from the golden
// matrix (exhaustive TSO, reduced SC) and the CLoF induction step under WMM,
// each well under a second. states/op and execs/op are the search's
// deterministic counts; ns/op is the host time of one search.
func BenchmarkCheck(b *testing.B) {
	for _, bc := range []struct {
		name string
		prog Program
		cfg  Config
	}{
		{"mcs/2x1/TSO", LockProgram("mcs", 2, 1, lk("mcs")), Config{Mode: TSO}},
		{"mcs/2x1/SC/POR", LockProgram("mcs", 2, 1, lk("mcs")), Config{Mode: SC, POR: true}},
		{"induction/tkt-tkt/WMM", InductionProgram(1, false, "tkt", "tkt"), Config{Mode: WMM}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				res = Check(bc.prog, bc.cfg)
			}
			if !res.OK {
				b.Fatal(res.Violation)
			}
			b.ReportMetric(float64(res.States), "states/op")
			b.ReportMetric(float64(res.Executions), "execs/op")
		})
	}
}
