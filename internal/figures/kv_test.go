package figures

import (
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// TestKVNoopPointFails: a shard lock that excludes nobody must fail its kv
// point instead of scoring, at the serving thread count on clof-bench's
// default kv geometry (8 shards, read-mostly, Zipfian keys), while a ticket
// lock on the same run scores. KVSample is the one conversion both kv paths
// — kvFigure and clof-bench -workload kv — route through.
func TestKVNoopPointFails(t *testing.T) {
	run := func(mk func() lockapi.Lock) (workload.KVResult, error) {
		return workload.RunKV(workload.KVConfig{
			Machine: topo.X86Server(), Threads: KVThreads, Shards: 8,
			NewShardLock: mk,
			Horizon:      300_000,
			Mix:          store.ReadMostly, Dist: store.DistZipfian,
			Seed: 1,
		})
	}
	s := KVSample(run(func() lockapi.Lock { return lockapi.Noop{} }))
	if !strings.Contains(s.Err, "mutual-exclusion violations") || s.Throughput != 0 {
		t.Errorf("noop: Err = %q, throughput %v; want an exclusion failure and zero throughput", s.Err, s.Throughput)
	}
	if s := KVSample(run(locks.MustType("tkt").New)); s.Err != "" || s.Throughput <= 0 {
		t.Errorf("tkt: Err = %q, throughput %v; want a scored point", s.Err, s.Throughput)
	}
}

// TestKVQuick asserts the sharded-serving acceptance criteria at reduced
// scale. From the sharding refactor: on the read-mostly mix, the sharded
// rwlock configuration (shared fast path × per-shard locks) beats the single
// global ticket lock — the pre-refactor engine — and the per-shard exclusion
// invariants hold across every mix. From the optimistic-read work: on the
// read-mostly mix at the largest shard count, the seq:tkt row (validated
// lock-free reads) beats EVERY pessimistic catalog lock, rwlock's shared
// path included, on BOTH modeled architectures. The full-scale committed
// artifacts (figures-out/kv-*.csv) record the same comparisons in their
// notes.
func TestKVQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-millisecond simulated horizons")
	}
	figs := KV(quick)
	if len(figs) != 5 {
		t.Fatalf("KV returned %d figures, want 5 (4 x86 mixes + armv8 read-mostly)", len(figs))
	}
	grid := []int{1, 4, 16} // the Quick shard grid
	for _, f := range figs {
		for _, s := range f.Series {
			for i, y := range s.Y {
				if y <= 0 {
					t.Errorf("%s %s: zero throughput at %d shards", f.ID, s.Name, s.X[i])
				}
			}
		}
		for _, n := range f.Notes {
			t.Logf("%s note: %s", f.ID, n)
		}
	}

	rm := figs[0]
	if rm.ID != "kv-read-mostly" {
		t.Fatalf("first figure is %s, want kv-read-mostly", rm.ID)
	}
	// The sharding criterion: sharding the read-mostly store behind
	// reader-writer shard locks must beat the single global spinlock. Quick
	// mode halves the horizon, so assert a margin below the full-scale gap.
	if sp := KVSpeedup(rm, "rwlock", "tkt", grid); sp < 1.2 {
		t.Errorf("read-mostly sharded rwlock speedup %.2fx over global tkt, want >= 1.2x", sp)
	}
	// More shards must not lose throughput for the plain spinlock either:
	// sharding splits the contention domain.
	if tkt, ok := rm.Get("tkt"); !ok || tkt.At(16) <= tkt.At(1) {
		t.Errorf("read-mostly tkt at 16 shards (%.4f) does not beat 1 shard (%.4f)",
			tkt.At(16), tkt.At(1))
	}

	// The optimistic-read criterion, on both modeled architectures: the
	// seq:tkt row at the grid maximum beats every pessimistic lock at the
	// same shard count — the read path validates a version word instead of
	// acquiring, so on a 95%-read mix no pessimistic reader (rwlock's shared
	// RMWs included) should keep up.
	arm := figs[4]
	if arm.ID != "kv-read-mostly-armv8" {
		t.Fatalf("last figure is %s, want kv-read-mostly-armv8", arm.ID)
	}
	max := grid[len(grid)-1]
	for _, f := range []*Figure{rm, arm} {
		for _, p := range KVPessimisticLocks {
			if r := KVRatioAt(f, "seq:tkt", p, max); r <= 1.0 {
				t.Errorf("%s: optimistic seq:tkt does not beat pessimistic %s at %d shards (%.2fx)",
					f.ID, p, max, r)
			}
		}
	}
}
