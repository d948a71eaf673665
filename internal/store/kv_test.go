package store

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/seqlock"
)

// applyOps drives the same seeded op stream against any put/get/scan
// surface; the oracle tests compare sharded stores against the unsharded
// engine through it.
type kvSurface interface {
	Put(p lockapi.Proc, key, value []byte)
	Get(p lockapi.Proc, key []byte) ([]byte, bool)
	Scan(p lockapi.Proc, start, end []byte, fn func(k, v []byte) bool)
}

// rawKV drives the engine directly, with no lock, through kvSurface.
type rawKV struct{ *kvstore.DB }

func (r rawKV) Put(_ lockapi.Proc, k, v []byte)                             { r.DB.Put(k, v) }
func (r rawKV) Get(_ lockapi.Proc, k []byte) ([]byte, bool)                 { return r.DB.Get(k) }
func (r rawKV) Scan(_ lockapi.Proc, s, e []byte, fn func(k, v []byte) bool) { r.DB.Scan(s, e, fn) }

func scanAll(s kvSurface) []string {
	var out []string
	s.Scan(p0, kvstore.Key(0), nil, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	})
	return out
}

func openSharded(shards int, rangeKeys int) *KV {
	return OpenKV(KVOptions{
		Shards:    shards,
		RangeKeys: rangeKeys,
		NewLock:   func(int) lockapi.Lock { return locks.NewTicket() },
		Shard:     kvstore.Options{MemtableBytes: 400, MaxRuns: 2, Seed: 11},
	})
}

// TestShardedMatchesSingleShardGolden: for every partitioning, a seeded op
// stream leaves the sharded store exactly equal (scan output and stats) to
// the one-shard configuration, which in turn matches the raw engine.
func TestShardedMatchesSingleShardGolden(t *testing.T) {
	type target struct {
		name string
		s    kvSurface
	}
	raw := kvstore.Open(kvstore.Options{MemtableBytes: 400, MaxRuns: 2, Seed: 11})
	targets := []target{
		{"raw", rawKV{raw}},
		{"one-shard", openSharded(1, 0).NewSession()},
		{"hash-4", openSharded(4, 0).NewSession()},
		{"range-4", openSharded(4, 200).NewSession()},
	}
	for _, tg := range targets {
		rng := uint64(1)
		for i := 0; i < 600; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			k := kvstore.Key(int(rng>>33) % 200)
			if (rng>>20)%2 == 0 {
				tg.s.Put(p0, k, []byte(fmt.Sprint(i)))
			} else {
				tg.s.Get(p0, k)
			}
		}
	}
	want := scanAll(targets[0].s)
	for _, tg := range targets[1:] {
		got := scanAll(tg.s)
		if len(got) != len(want) {
			t.Fatalf("%s: %d live keys, want %d", tg.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: scan[%d] = %s, want %s", tg.name, i, got[i], want[i])
			}
		}
	}
	// Put counters aggregate identically (Runs/Compactions differ by
	// construction: per-shard memtables freeze at different times).
	wantStats := raw.Stats()
	for _, tg := range targets[1:] {
		if st := sumStats(tg.s.(*KVSession).ShardStats(p0)); st.Puts != wantStats.Puts {
			t.Errorf("%s: %d puts, want %d", tg.name, st.Puts, wantStats.Puts)
		}
	}
}

// TestCrossShardScanMergedOrder: keys interleaved across hash shards come
// back in strict ascending order, merged across shard boundaries.
func TestCrossShardScanMergedOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		kv   *KV
	}{
		{"hash", openSharded(4, 0)},
		{"range", openSharded(4, 300)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.kv.NewSession()
			for i := 299; i >= 0; i-- {
				s.Put(p0, kvstore.Key(i), []byte(fmt.Sprint(i)))
			}
			var prev []byte
			n := 0
			s.Scan(p0, kvstore.Key(0), nil, func(k, v []byte) bool {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Fatalf("scan out of order: %q after %q", k, prev)
				}
				prev = append(prev[:0], k...)
				n++
				return true
			})
			if n != 300 {
				t.Fatalf("scan visited %d keys, want 300", n)
			}
			// Bounded range [120, 180).
			n = 0
			s.Scan(p0, kvstore.Key(120), kvstore.Key(180), func(k, v []byte) bool {
				n++
				return true
			})
			if n != 60 {
				t.Fatalf("bounded scan visited %d keys, want 60", n)
			}
		})
	}
}

// TestCrossShardScanEarlyStop: fn returning false stops the merged scan
// without visiting further keys or shards.
func TestCrossShardScanEarlyStop(t *testing.T) {
	for _, tc := range []struct {
		name string
		kv   *KV
	}{
		{"hash", openSharded(4, 0)},
		{"range", openSharded(4, 100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.kv.NewSession()
			for i := 0; i < 100; i++ {
				s.Put(p0, kvstore.Key(i), []byte("v"))
			}
			n := 0
			s.Scan(p0, kvstore.Key(0), nil, func(k, v []byte) bool {
				if string(k) != string(kvstore.Key(n)) {
					t.Fatalf("scan[%d] = %q, want %q", n, k, kvstore.Key(n))
				}
				n++
				return n < 7
			})
			if n != 7 {
				t.Fatalf("early stop visited %d keys, want 7", n)
			}
		})
	}
}

// TestShardedOracle: the property-test satellite — random put/get
// streams against hash- and range-sharded stores match a map oracle, across
// freezes and compactions, for several shard counts.
func TestShardedOracle(t *testing.T) {
	f := func(ops []uint16, hashPart bool) bool {
		shards := 1 + int(len(ops))%5
		rangeKeys := 0
		if !hashPart {
			rangeKeys = 53
		}
		kv := OpenKV(KVOptions{
			Shards:    shards,
			RangeKeys: rangeKeys,
			Shard:     kvstore.Options{MemtableBytes: 200, MaxRuns: 2, Seed: 3},
		})
		s := kv.NewSession()
		oracle := map[string]string{}
		for i, op := range ops {
			k := string(kvstore.Key(int(op % 53)))
			if op%4 != 2 {
				v := fmt.Sprint(i)
				s.Put(p0, []byte(k), []byte(v))
				oracle[k] = v
				continue
			}
			got, ok := s.Get(p0, []byte(k))
			want, wok := oracle[k]
			if ok != wok || (ok && string(got) != want) {
				return false
			}
		}
		seen := map[string]string{}
		s.Scan(p0, kvstore.Key(0), nil, func(k, v []byte) bool {
			seen[string(k)] = string(v)
			return true
		})
		if len(seen) != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if seen[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestShardStats: per-shard snapshots attribute operations to the shard
// that served them, and every shard of a uniform load serves some.
func TestShardStats(t *testing.T) {
	kv := openSharded(4, 200)
	s := kv.NewSession()
	for i := 0; i < 200; i++ {
		s.Put(p0, kvstore.Key(i), []byte("v"))
	}
	per := s.ShardStats(p0)
	if len(per) != 4 {
		t.Fatalf("ShardStats len = %d", len(per))
	}
	var puts uint64
	for i, st := range per {
		if st.Puts != 50 {
			t.Errorf("shard %d puts = %d, want 50 (uniform range partition)", i, st.Puts)
		}
		puts += st.Puts
	}
	if total := sumStats(per); total.Puts != puts || total.Puts != 200 {
		t.Errorf("aggregate puts = %d, want 200", total.Puts)
	}
}

// TestConcurrentReadRandomWithLocks: LevelDB db_bench's readrandom on a
// one-shard store. None of these locks has a shared mode, so every read takes
// the one DB lock exclusively, like LevelDB's global mutex.
func TestConcurrentReadRandomWithLocks(t *testing.T) {
	for _, name := range []string{"tkt", "mcs", "clh", "hem"} {
		name := name
		t.Run(name, func(t *testing.T) {
			kv := OpenKV(KVOptions{NewLock: func(int) lockapi.Lock { return locks.MustType(name).New() }})
			PreloadKV(kv, 1000)
			// Scale workers to the host: spinning goroutines beyond
			// 2×GOMAXPROCS mostly measure the Go scheduler, and on small
			// hosts a worker may not even start within the window.
			threads := min(2*runtime.GOMAXPROCS(0), 8)
			res := RunYCSB(kv, YCSBOptions{
				Keys: 1000, Threads: threads, Duration: 100 * time.Millisecond,
				Mix: Mix{Name: "readrandom", ReadPct: 100},
			})
			if res.Ops == 0 {
				t.Fatal("no reads completed")
			}
			if res.Misses != 0 {
				t.Errorf("misses = %d on a preloaded key space", res.Misses)
			}
			// Per-thread starvation is not assertable natively: with
			// GOMAXPROCS=1 a late-starting goroutine may not run within the
			// window at all (the goroutine scheduler, not the lock, decides
			// — exactly the distortion DESIGN.md §1 documents). Require only
			// that a majority of workers progressed; fairness is measured on
			// the simulator instead.
			progressed := 0
			for _, c := range res.PerThread {
				if c > 0 {
					progressed++
				}
			}
			if progressed < len(res.PerThread)/2 {
				t.Errorf("only %d/%d workers progressed", progressed, len(res.PerThread))
			}
		})
	}
}

// TestConcurrentMixedWorkload: writers and readers racing through one
// shard's lock, across memtable freezes, never lose a committed key.
func TestConcurrentMixedWorkload(t *testing.T) {
	kv := OpenKV(KVOptions{
		NewLock: func(int) lockapi.Lock { return locks.NewMCS() },
		Shard:   kvstore.Options{MemtableBytes: 4 << 10},
	})
	PreloadKV(kv, 200)
	sessions := make([]*KVSession, 3)
	for i := range sessions {
		sessions[i] = kv.NewSession()
	}
	var wg sync.WaitGroup
	for w := range sessions {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(w + 1)
			for i := 0; i < 3000; i++ {
				if i%4 == 0 {
					sessions[w].Put(p, kvstore.Key(i%200), []byte("upd"))
				} else if _, ok := sessions[w].Get(p, kvstore.Key(i%200)); !ok {
					t.Errorf("key %d vanished", i%200)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPreloadMatchesPuts: PreloadKV leaves the store that per-key Puts and a
// Flush leave, under hash and range partitioning, at every worker count it
// picks on one to four CPUs: per-shard counters and run counts (each shard
// freezes several runs and compacts) and contents. Every worker range starts
// on a decimal carry (12,000 keys split at 3,000, 4,000, 6,000, 8,000 and
// 9,000). internal/kvstore's TestLoadMatchesPuts compares the runs entry by
// entry.
func TestPreloadMatchesPuts(t *testing.T) {
	const keys = 12_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 3, 16} {
			for _, rangeKeys := range []int{0, keys} {
				opts := KVOptions{
					Shards: shards, RangeKeys: rangeKeys,
					NewLock: func(int) lockapi.Lock { return locks.NewMCS() },
					Shard:   kvstore.Options{MemtableBytes: 16 << 10, MaxRuns: 4, Seed: 5},
				}
				name := fmt.Sprintf("procs %d shards %d rangeKeys %d", procs, shards, rangeKeys)
				loaded, put := OpenKV(opts), OpenKV(opts)
				PreloadKV(loaded, keys)
				ps := put.NewSession()
				value := make([]byte, 100)
				for i := 0; i < keys; i++ {
					ps.Put(p0, kvstore.Key(i), value)
				}
				ps.Flush(p0)
				ls := loaded.NewSession()
				got, want := ls.ShardStats(p0), ps.ShardStats(p0)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s shard %d: stats %+v, want %+v", name, i, got[i], want[i])
					}
					if want[i].Compactions == 0 {
						t.Fatalf("%s shard %d: %+v, the test must compact", name, i, want[i])
					}
				}
				if g, w := scanAll(ls), scanAll(ps); !slices.Equal(g, w) || len(w) != keys {
					t.Fatalf("%s: scan has %d keys, want %d equal to the Puts'", name, len(g), len(w))
				}
			}
		}
	}
}

// BenchmarkPreloadKV times the set-up rung, OpenKV + PreloadKV, in the
// per-shard shape of the ycsb-b benchmark's set-up at a quarter of its
// scale: 62,500 sequential keys per seq:tkt-locked shard with 1 MiB
// memtables, each shard loading seven runs. PreloadKV runs on
// min(GOMAXPROCS, 4) workers, so -cpu 1 times the single-worker load and a
// higher -cpu adds the parallel speed-up.
func BenchmarkPreloadKV(b *testing.B) {
	const shards, keys = 4, 250_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kv := OpenKV(KVOptions{
			Shards:  shards,
			NewLock: func(int) lockapi.Lock { return seqlock.Wrap(locks.NewTicket()) },
			Shard:   kvstore.Options{MemtableBytes: 1 << 20},
		})
		PreloadKV(kv, keys)
	}
}
