package workload_test

import (
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/figures"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/obs"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// TestKVObserverPerShard: for every lock the kv figures sweep, per-shard obs
// collectors see the exclusive acquisitions the driver counts, and
// CombineShards' shard block sums to its aggregate. Shared acquisitions
// (rwlock) and validated optimistic reads (seq:) report no edges, so the
// observed count is bounded below by the driver's exclusive count.
func TestKVObserverPerShard(t *testing.T) {
	const threads, shards = 8, 4
	m := topo.X86Server()
	for _, name := range figures.KVLocks {
		e, err := catalog.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			collectors := make([]*obs.Collector, shards)
			for i := range collectors {
				collectors[i] = obs.NewCollector(m, obs.Options{})
			}
			r, err := workload.RunKV(workload.KVConfig{
				Machine: m, Threads: threads, Shards: shards, Horizon: 150_000,
				NewShardLock: func() lockapi.Lock { return e.New(m) },
				Mix:          store.WriteHeavy, Seed: 13,
				Observer: func(i int) lockapi.Observer { return collectors[i] },
			})
			if err != nil {
				t.Fatal(err)
			}
			rep := obs.CombineShards(name, collectors, r.SharedPerShard, nil)
			if rep.Acquisitions == 0 {
				t.Fatal("no acquisitions observed")
			}
			if len(rep.Shards) != shards {
				t.Fatalf("report shards = %d", len(rep.Shards))
			}
			var fromObs, unserved uint64
			for i, s := range rep.Shards {
				// A read counts once it returns, so an exclusive read the
				// horizon stopped inside the lock is observed but not
				// counted: at most one per thread.
				exclusive := r.PerShard[i] - r.SharedPerShard[i]
				if s.Acquisitions < exclusive {
					t.Errorf("shard %d: obs %d acquisitions < driver's %d exclusive", i, s.Acquisitions, exclusive)
				} else {
					unserved += s.Acquisitions - exclusive
				}
				fromObs += s.Acquisitions
			}
			if unserved > threads {
				t.Errorf("obs saw %d acquisitions the driver did not count, want <= %d", unserved, threads)
			}
			if fromObs != rep.Acquisitions {
				t.Errorf("shard block sums to %d, aggregate says %d", fromObs, rep.Acquisitions)
			}
		})
	}
}
