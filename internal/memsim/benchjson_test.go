package memsim

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// benchArtifact is the BENCH_*.json schema: the simulator's host-side
// throughput on its canonical scenarios, for before/after comparison of
// execution-core changes (see EXPERIMENTS.md "Profiling the simulator").
type benchArtifact struct {
	Schema     int              `json:"schema"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Quick      bool             `json:"quick,omitempty"`
	Benchmarks []benchJSONEntry `json:"benchmarks"`
}

type benchJSONEntry struct {
	Name string `json:"name"`
	// Iterations of the whole scenario (one simulation run each).
	Iterations int `json:"iterations"`
	// NSPerOp is host nanoseconds per scenario iteration.
	NSPerOp float64 `json:"ns_per_op"`
	// SimOpsPerSec is simulated memory operations per host second — the
	// simulator's real-time throughput, the headline number.
	SimOpsPerSec float64 `json:"simops_per_sec"`
}

// lockScenario runs one fixed-horizon contended-lock simulation and returns
// the number of simulated operations.
func lockScenario(mach *topo.Machine, lockName string, n int) uint64 {
	m := New(Config{Machine: mach})
	l := locks.MustType(lockName).New()
	var shared lockapi.Cell
	step := mach.NumCPUs() / n
	if step == 0 {
		step = 1
	}
	procs := make([]*Proc, n)
	for j := 0; j < n; j++ {
		ctx := l.NewCtx()
		procs[j] = m.Spawn((j*step)%mach.NumCPUs(), func(p *Proc) {
			for !p.Expired() {
				l.Acquire(p, ctx)
				p.Add(&shared, 1, lockapi.Relaxed)
				p.Work(50)
				l.Release(p, ctx)
				p.Work(200)
			}
		})
	}
	m.Run(300_000)
	var ops uint64
	for _, p := range procs {
		ops += p.Ops
	}
	return ops
}

// TestWriteBenchArtifact measures the canonical scenarios and writes the
// JSON artifact named by CLOF_BENCH_OUT (skipped when unset — the normal
// test run never pays for this). CLOF_BENCH_QUICK=1 runs each scenario once
// (CI smoke); otherwise each is timed over ~300ms of repetitions.
// Driven by `make bench` / `make bench-smoke`.
func TestWriteBenchArtifact(t *testing.T) {
	out := os.Getenv("CLOF_BENCH_OUT")
	if out == "" {
		t.Skip("CLOF_BENCH_OUT not set")
	}
	quick := os.Getenv("CLOF_BENCH_QUICK") != ""

	scenarios := []struct {
		name string
		run  func() uint64
	}{
		{"machine_pingpong", func() uint64 { return pingPongOps(300_000) }},
		{"machine_mcs8", func() uint64 { return lockScenario(topo.X86Server(), "mcs", 8) }},
		{"machine_mcs32", func() uint64 { return lockScenario(topo.X86Server(), "mcs", 32) }},
		{"machine_tkt8", func() uint64 { return lockScenario(topo.X86Server(), "tkt", 8) }},
		{"machine_hemctr8_armv8", func() uint64 { return lockScenario(topo.Armv8Server(), "hem-ctr", 8) }},
	}

	art := benchArtifact{
		Schema:    1,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
	}
	for _, sc := range scenarios {
		iters := 1
		if !quick {
			// Calibrate: one warm-up run sizes ~300ms of repetitions.
			warm := time.Now()
			sc.run()
			if d := time.Since(warm); d > 0 {
				if iters = int(300 * time.Millisecond / d); iters < 1 {
					iters = 1
				}
			}
		}
		var ops uint64
		start := time.Now()
		for i := 0; i < iters; i++ {
			ops += sc.run()
		}
		elapsed := time.Since(start)
		art.Benchmarks = append(art.Benchmarks, benchJSONEntry{
			Name:         sc.name,
			Iterations:   iters,
			NSPerOp:      float64(elapsed.Nanoseconds()) / float64(iters),
			SimOpsPerSec: float64(ops) / elapsed.Seconds(),
		})
		t.Logf("%s: %d iters, %.2fms/iter, %.0f simops/s",
			sc.name, iters, float64(elapsed.Nanoseconds())/float64(iters)/1e6, float64(ops)/elapsed.Seconds())
	}

	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
