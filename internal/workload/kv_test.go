package workload

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/rwlock"
	"github.com/clof-go/clof/internal/seqlock"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
)

// TestKVDeterministic: identical seeds reproduce the run exactly, per shard.
func TestKVDeterministic(t *testing.T) {
	m := topo.X86Server()
	run := func() KVResult {
		r, err := RunKV(KVConfig{
			Machine: m, Threads: 8, Shards: 4, Horizon: 150_000,
			NewShardLock: func() lockapi.Lock { return locks.NewTicket() },
			Mix:          store.WriteHeavy, Dist: store.DistZipfian, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Total != b.Total || a.Now != b.Now || a.Events != b.Events {
		t.Fatalf("runs diverge: %d/%d/%d vs %d/%d/%d", a.Total, a.Now, a.Events, b.Total, b.Now, b.Events)
	}
	for i := range a.PerShard {
		if a.PerShard[i] != b.PerShard[i] {
			t.Fatalf("shard %d diverges: %d vs %d", i, a.PerShard[i], b.PerShard[i])
		}
	}
}

// TestKVExclusionAcrossLocks: every catalog-style lock family keeps the
// per-shard critical sections exclusive under the serving mix.
func TestKVExclusionAcrossLocks(t *testing.T) {
	m := topo.X86Server()
	mks := map[string]func() lockapi.Lock{
		"tkt": func() lockapi.Lock { return locks.NewTicket() },
		"mcs": func() lockapi.Lock { return locks.NewMCS() },
		"rwlock": func() lockapi.Lock {
			return rwlock.New(m, topo.CacheGroup, locks.NewMCS())
		},
	}
	for name, mk := range mks {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			r, err := RunKV(KVConfig{
				Machine: m, Threads: 12, Shards: 4, Horizon: 200_000,
				NewShardLock: mk,
				Mix:          store.ReadModifyWrite, Dist: store.DistZipfian, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Total == 0 {
				t.Fatal("no iterations completed")
			}
			if r.ExclusionViolations != 0 {
				t.Errorf("%d exclusion violations", r.ExclusionViolations)
			}
			if r.SharedViolations != 0 {
				t.Errorf("%d shared/exclusive overlap violations", r.SharedViolations)
			}
			if name == "rwlock" {
				var shared uint64
				for _, c := range r.SharedPerShard {
					shared += c
				}
				if shared == 0 {
					t.Error("rwlock shards served no shared acquisitions on a read-heavy mix")
				}
			}
		})
	}
}

// TestKVOptimisticReads: seqlock shard locks serve the read-mostly mix
// through the router's lock-free validated path — reads bypass the shard
// lock, the torn-read oracle stays clean, and the router's OCC counters are
// self-consistent.
func TestKVOptimisticReads(t *testing.T) {
	m := topo.X86Server()
	r, err := RunKV(KVConfig{
		Machine: m, Threads: 12, Shards: 4, Horizon: 200_000,
		NewShardLock: func() lockapi.Lock { return seqlock.Wrap(locks.NewTicket()) },
		Mix:          store.ReadMostly, Dist: store.DistZipfian, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Total == 0 || r.Reads == 0 {
		t.Fatal("no reads completed")
	}
	if r.TornReads != 0 {
		t.Errorf("%d torn reads escaped seqlock validation", r.TornReads)
	}
	if r.ExclusionViolations != 0 || r.SharedViolations != 0 {
		t.Errorf("violations: %d exclusion, %d shared", r.ExclusionViolations, r.SharedViolations)
	}
	var opt, vfails, falls, acqs uint64
	for i, st := range r.OCC {
		opt += st.Optimistic
		vfails += st.ValidationFailures
		falls += st.Fallbacks
		acqs += r.PerShard[i]
	}
	if opt == 0 {
		t.Fatal("seqlock shards served no optimistic reads")
	}
	// Read-mostly: lock-free read attempts must dominate lock acquisitions,
	// since only writes and fallbacks take the lock.
	if opt <= acqs {
		t.Errorf("optimistic attempts %d <= lock acquisitions %d on a read-mostly mix", opt, acqs)
	}
	// Every fallback spent a whole budget of failed validations first.
	if vfails < falls {
		t.Errorf("validation failures %d < fallbacks %d", vfails, falls)
	}
	// A plain ticket lock has no optimistic path: counters must stay zero.
	r2, err := RunKV(KVConfig{
		Machine: m, Threads: 12, Shards: 4, Horizon: 200_000,
		NewShardLock: func() lockapi.Lock { return locks.NewTicket() },
		Mix:          store.ReadMostly, Dist: store.DistZipfian, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range r2.OCC {
		if st.Optimistic != 0 {
			t.Errorf("shard %d: %d optimistic reads on a plain ticket lock", i, st.Optimistic)
		}
	}
}

// TestKVScanVisitsConsecutiveShards: under a range partition a scan visits
// every shard its key span covers, so some scans cross a shard boundary, and
// the walk stays deadlock-free.
func TestKVScanVisitsConsecutiveShards(t *testing.T) {
	const threads = 8
	m := topo.X86Server()
	r, err := RunKV(KVConfig{
		Machine: m, Threads: threads, Shards: 32, Horizon: 1_000_000,
		NewShardLock: func() lockapi.Lock { return locks.NewMCS() },
		Mix:          store.ScanHeavy, RangePartition: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scans == 0 {
		t.Fatal("scan mix ran no scans")
	}
	var acqs uint64
	for _, c := range r.PerShard {
		acqs += c
	}
	// MCS has neither a shared nor an optimistic path, so every read, write
	// and scan visit is one acquisition. Were every scan confined to one
	// shard, acquisitions would be Reads+Updates+2*RMWs+Scans, plus at most
	// two per thread for the operation the horizon cut short.
	if single := r.Reads + r.Updates + 2*r.RMWs + r.Scans + 2*threads; acqs <= single {
		t.Errorf("acquisitions %d <= %d; no scan crossed a shard boundary", acqs, single)
	}
}

// TestKVHotspotRangeSkew: a hotspot distribution over a range partition
// concentrates acquisitions on the first shard.
func TestKVHotspotRangeSkew(t *testing.T) {
	m := topo.X86Server()
	r, err := RunKV(KVConfig{
		Machine: m, Threads: 8, Shards: 4, Horizon: 150_000,
		NewShardLock: func() lockapi.Lock { return locks.NewTicket() },
		Mix:          store.WriteHeavy, Dist: store.DistHotspot,
		RangePartition: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rest uint64
	for _, c := range r.PerShard[1:] {
		rest += c
	}
	if r.PerShard[0] <= rest {
		t.Errorf("hotspot: shard 0 got %d acquisitions vs %d elsewhere; want a hot shard", r.PerShard[0], rest)
	}
}

// blindSeq is a ticket lock whose optimistic read path belongs to a seqlock
// no writer ever takes, so every snapshot validates: the seeded seqlock bug
// the torn-read oracle must catch.
type blindSeq struct {
	lockapi.Lock      // writers: a plain ticket lock
	lockapi.SeqReader // readers: a version word that never moves
}

// TestKVOraclesCatchSeededBugs: the host-side oracles fire on broken shard
// locks — a lock that excludes nothing yields exclusion violations, and a
// seqlock that certifies every snapshot yields torn reads.
func TestKVOraclesCatchSeededBugs(t *testing.T) {
	m := topo.X86Server()
	run := func(mk func() lockapi.Lock) KVResult {
		r, err := RunKV(KVConfig{
			Machine: m, Threads: 12, Shards: 2, Horizon: 200_000,
			NewShardLock: mk, Mix: store.WriteHeavy, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := run(func() lockapi.Lock { return lockapi.Noop{} }); r.ExclusionViolations == 0 {
		t.Error("no exclusion violations with a no-op shard lock")
	}
	r := run(func() lockapi.Lock {
		return blindSeq{locks.NewTicket(), seqlock.Wrap(locks.NewTicket()).(lockapi.SeqReader)}
	})
	if r.TornReads == 0 {
		t.Error("no torn reads with a seqlock whose validation always passes")
	}
	if r.ExclusionViolations != 0 {
		t.Errorf("%d exclusion violations: the writers' lock is intact", r.ExclusionViolations)
	}
}
