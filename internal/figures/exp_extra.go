package figures

import (
	"fmt"
	"time"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/mcheck"
	"github.com/clof-go/clof/internal/workload"
)

// AblationKeepLocal sweeps the keep_local threshold H (paper default 128,
// DESIGN.md §6.1): throughput and fairness as the local-handover bound
// varies. Tiny H forfeits locality; huge H trades short-term fairness.
func AblationKeepLocal(o Options) *Figure {
	p := Arm()
	n := 64
	if o.Quick {
		n = 32
	}
	f := &Figure{
		ID:     "ablation-keeplocal",
		Title:  fmt.Sprintf("keep_local threshold sweep (%s, %d threads, tput and 10x jain)", PaperLC4Arm, n),
		XLabel: "threshold",
		YLabel: "iter/us",
	}
	thresholds := []uint64{1, 8, 32, 128, 512}
	spec := exp.Spec{
		Name: f.ID, Platform: "armv8", Workload: "leveldb",
		Threads: []int{n}, Runs: o.Runs, Quick: o.Quick,
		Locks: []string{PaperLC4Arm},
		Notes: "keep_local threshold sweep over H in {1,8,32,128,512}",
	}
	rows := make([]string, len(thresholds))
	hs := make([]int, len(thresholds))
	for i, h := range thresholds {
		rows[i] = fmt.Sprintf("h=%d", h)
		hs[i] = int(h)
	}
	res := o.sweep(spec, rows, "threads", []int{n}, func(row, n int, seed uint64) exp.Sample {
		return o.levelDB(p.Machine, clofFactory(p.H4, PaperLC4Arm, clof.WithThreshold(thresholds[row])), n, seed)
	})
	// One point per threshold row: the curves run down the rows.
	col := make([]exp.Result, len(res))
	for i, row := range res {
		col[i] = row[0]
	}
	f.Series = append(f.Series,
		series("throughput", hs, col, exp.Result.Throughput),
		series("jain-x10", hs, col, func(r exp.Result) float64 { return r.Jain.Median * 10 }))
	return f
}

// AblationHasWaiters compares the custom has_waiters fast path (§4.1.2)
// against the generic waiters counter for a composition whose locks offer
// detectors (Ticket/MCS).
func AblationHasWaiters(o Options) *Figure {
	p := X86()
	grid := o.grid(p)
	comp := PaperLC4X86 // tkt-tkt-mcs-mcs: every level has a detector
	cfgFor := func(n int) workload.Config { return o.adjust(workload.LevelDB(p.Machine, n)) }
	f := &Figure{
		ID:     "ablation-haswaiters",
		Title:  "custom has_waiters vs waiters counter (" + comp + ", x86)",
		XLabel: "threads",
		YLabel: "iter/us",
	}
	entries := []lockEntry{
		{"custom-detector", clofFactory(p.H4, comp)},
		{"waiters-counter", clofFactory(p.H4, comp, clof.WithoutCustomHasWaiters())},
	}
	spec := exp.Spec{Name: f.ID, Platform: "x86", Workload: "leveldb", Notes: "composition " + comp}
	f.Series = runCurves(o, spec, entries, cfgFor, grid)
	return f
}

// AblationFastPath measures the §6 TAS fast-path extension: gain at low
// contention (the hierarchy climb is skipped) vs behavior under load (the
// slow path takes over).
func AblationFastPath(o Options) *Figure {
	p := Arm()
	grid := o.grid(p)
	cfgFor := func(n int) workload.Config { return o.adjust(workload.LevelDB(p.Machine, n)) }
	f := &Figure{
		ID:     "ablation-fastpath",
		Title:  "TAS fast path (§6 extension) on " + PaperLC4Arm + ", Armv8",
		XLabel: "threads",
		YLabel: "iter/us",
	}
	entries := []lockEntry{
		{"plain", clofFactory(p.H4, PaperLC4Arm)},
		{"tas-fastpath", clofFactory(p.H4, PaperLC4Arm, clof.WithTASFastPath())},
	}
	spec := exp.Spec{Name: f.ID, Platform: "armv8", Workload: "leveldb", Notes: "composition " + PaperLC4Arm}
	f.Series = runCurves(o, spec, entries, cfgFor, grid)
	return f
}

// VerificationRow is one model-checking result for the §3.3/§4.2 table.
type VerificationRow struct {
	Program string
	Mode    mcheck.Mode
	Result  mcheck.Result
	Elapsed time.Duration
}

// VerificationTable runs the §4.2 verification suite and reports state
// counts and times — the repository's analog of the paper's observation
// that whole-lock checking explodes with depth while CLoF's induction step
// stays at 3 threads. ExpectViolation rows are the negative results.
func VerificationTable(o Options) []VerificationRow {
	type job struct {
		name string
		prog mcheck.Program
		mode mcheck.Mode
	}
	jobs := []job{}
	for _, l := range []string{"tkt", "mcs", "clh", "hem"} {
		jobs = append(jobs, job{"base " + l + " 3x1", mcheck.LockProgram(l, 3, 1, locks.MustType(l).New), mcheck.SC})
		jobs = append(jobs, job{"base " + l + " 2x2 wmm", mcheck.LockProgram(l, 2, 2, locks.MustType(l).New), mcheck.WMM})
	}
	jobs = append(jobs,
		job{"base qspin 3x1", mcheck.LockProgram("qspin", 3, 1, locks.MustType("qspin").New), mcheck.SC},
		job{"induction tkt-tkt", mcheck.InductionProgram(1, false, "tkt", "tkt"), mcheck.SC},
		job{"induction tkt-tkt wmm", mcheck.InductionProgram(1, false, "tkt", "tkt"), mcheck.WMM},
		job{"extension tas-fastpath", mcheck.FastPathProgram(1), mcheck.SC},
		job{"NEGATIVE release-order bug", mcheck.InductionProgram(2, true, "mcs", "mcs"), mcheck.SC},
		job{"NEGATIVE relaxed release wmm", mcheck.BrokenTicketProgram(2, 2), mcheck.WMM},
		job{"tso forgives relaxed release", mcheck.BrokenTicketProgram(2, 2), mcheck.TSO},
	)
	if !o.Quick {
		jobs = append(jobs,
			job{"induction mcs-tkt", mcheck.InductionProgram(1, false, "mcs", "tkt"), mcheck.SC},
			job{"induction clh-tkt", mcheck.InductionProgram(1, false, "clh", "tkt"), mcheck.SC},
		)
	}
	var rows []VerificationRow
	for _, j := range jobs {
		o.progress("verify: %s (%s)", j.name, j.mode)
		start := time.Now()
		res := mcheck.Check(j.prog, mcheck.Config{Mode: j.mode})
		rows = append(rows, VerificationRow{Program: j.name, Mode: j.mode, Result: res, Elapsed: time.Since(start)})
	}
	return rows
}

// ScalingRow records checker growth with thread count (whole-lock
// verification cost, §4.2.3's super-exponential observation).
type ScalingRow struct {
	Threads int
	States  int
	Elapsed time.Duration
}

// VerificationScaling measures whole-lock checking cost for Ticketlock at
// increasing thread counts, contrasted with the fixed-size induction step.
func VerificationScaling(o Options) []ScalingRow {
	max := 4
	if o.Quick {
		max = 3
	}
	var rows []ScalingRow
	for n := 2; n <= max; n++ {
		start := time.Now()
		res := mcheck.Check(mcheck.LockProgram("tkt", n, 1, locks.MustType("tkt").New), mcheck.Config{Mode: mcheck.SC})
		rows = append(rows, ScalingRow{Threads: n, States: res.States, Elapsed: time.Since(start)})
	}
	return rows
}
