package store

import (
	"testing"
	"time"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/rwlock"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/xrand"
)

// TestYCSBMixes: every standard mix completes operations of the kinds it
// declares, with no misses on a preloaded keyspace.
func TestYCSBMixes(t *testing.T) {
	for _, mix := range Mixes() {
		mix := mix
		t.Run(mix.Name, func(t *testing.T) {
			kv := OpenKV(KVOptions{
				Shards:  4,
				NewLock: func(int) lockapi.Lock { return locks.NewTicket() },
			})
			PreloadKV(kv, 2000)
			res := RunYCSB(kv, YCSBOptions{
				Keys: 2000, Threads: 2, Duration: 60 * time.Millisecond, Mix: mix, Seed: 5,
			})
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if res.Misses != 0 {
				t.Errorf("misses = %d on a preloaded keyspace", res.Misses)
			}
			if mix.ReadPct > 0 && res.Reads == 0 {
				t.Error("mix declares reads but none ran")
			}
			if mix.UpdatePct > 0 && res.Updates == 0 {
				t.Error("mix declares updates but none ran")
			}
			if mix.RMWPct > 0 && res.RMWs == 0 {
				t.Error("mix declares RMWs but none ran")
			}
			if mix.ScanPct > 0 && (res.Scans == 0 || res.ScannedKeys == 0) {
				t.Error("mix declares scans but none ran")
			}
			if got := res.Reads + res.Updates + res.RMWs + res.Scans; got != res.Ops {
				t.Errorf("kind split %d != total %d", got, res.Ops)
			}
		})
	}
}

// TestYCSBDistributions: the three key distributions run clean; zipfian and
// hotspot concentrate work (observable via the skew of the per-shard Puts
// the run adds, under a range partition and a clustered hot range).
func TestYCSBDistributions(t *testing.T) {
	for _, dist := range []string{DistUniform, DistZipfian, DistHotspot} {
		dist := dist
		t.Run(dist, func(t *testing.T) {
			kv := OpenKV(KVOptions{Shards: 4, RangeKeys: 2000})
			PreloadKV(kv, 2000)
			preloaded := kv.NewSession().ShardStats(lockapi.NewNativeProc(0))
			res := RunYCSB(kv, YCSBOptions{
				Keys: 2000, Threads: 1, Duration: 40 * time.Millisecond,
				Mix: WriteHeavy, Dist: dist, Seed: 9,
			})
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if res.Misses != 0 {
				t.Errorf("misses = %d", res.Misses)
			}
			if dist == DistHotspot {
				// 80% of ops target the first 20% of the range-partitioned
				// keyspace = shard 0 (plus some of shard 1's range).
				per := kv.NewSession().ShardStats(lockapi.NewNativeProc(0))
				hot := per[0].Puts - preloaded[0].Puts
				var rest uint64
				for i, st := range per[1:] {
					rest += st.Puts - preloaded[i+1].Puts
				}
				if hot <= rest {
					t.Errorf("hotspot: shard 0 served %d updates vs %d elsewhere; expected a hot shard", hot, rest)
				}
			}
		})
	}
}

// TestYCSBShardedRWLockBeatsGlobalLock is the acceptance check from the
// issue, in miniature: on a read-mostly mix, a sharded store with
// reader-writer shard locks must out-serve the single global exclusive
// lock. Native throughput is noisy (DESIGN.md §1), so require only strictly
// greater — the figures experiment measures the ratio deterministically.
func TestYCSBShardedRWLockBeatsGlobalLock(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative timing test")
	}
	m := topo.Armv8Server()
	run := func(kv *KV) YCSBResult {
		PreloadKV(kv, 5000)
		return RunYCSB(kv, YCSBOptions{
			Keys: 5000, Threads: 4, Duration: 150 * time.Millisecond,
			Mix: ReadMostly, Dist: DistZipfian, Seed: 17,
		})
	}
	global := run(OpenKV(KVOptions{Shards: 1, NewLock: func(int) lockapi.Lock { return locks.NewTicket() }}))
	sharded := run(OpenKV(KVOptions{Shards: 8, NewLock: func(int) lockapi.Lock {
		return rwlock.New(m, topo.CacheGroup, locks.NewMCS())
	}}))
	t.Logf("global tkt: %.3f ops/µs, sharded rwlock: %.3f ops/µs",
		global.ThroughputOpsPerUs(), sharded.ThroughputOpsPerUs())
	if sharded.Ops <= global.Ops {
		t.Errorf("sharded+rwlock (%d ops) did not beat global ticket lock (%d ops)", sharded.Ops, global.Ops)
	}
}

// TestZipfPickerSpreadsHotKeys: the scattered Zipfian picker must not leave
// whole shards idle (hot ranks are hashed across the keyspace).
func TestZipfPickerSpreadsHotKeys(t *testing.T) {
	kp := NewKeyPicker(DistZipfian, 1000, 0.99, xrand.New(3))
	part := NewPartitioner(8, 0)
	seen := map[int]int{}
	for i := 0; i < 5000; i++ {
		seen[part.Shard(kvstore.Key(kp.Next()))]++
	}
	for sh := 0; sh < 8; sh++ {
		if seen[sh] == 0 {
			t.Errorf("shard %d never drawn under scattered zipfian", sh)
		}
	}
}
