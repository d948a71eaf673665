package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
)

// applyOps drives the same seeded op stream against any put/delete/get/scan
// surface; the oracle tests compare sharded stores against the unsharded
// engine through it.
type kvSurface interface {
	Put(p lockapi.Proc, key, value []byte)
	Get(p lockapi.Proc, key []byte) ([]byte, bool)
	Delete(p lockapi.Proc, key []byte)
	Scan(p lockapi.Proc, start, end []byte, fn func(k, v []byte) bool)
}

// rawKV drives the engine directly, with no lock, through kvSurface.
type rawKV struct{ *kvstore.DB }

func (r rawKV) Put(_ lockapi.Proc, k, v []byte)                             { r.DB.Put(k, v) }
func (r rawKV) Get(_ lockapi.Proc, k []byte) ([]byte, bool)                 { return r.DB.Get(k) }
func (r rawKV) Delete(_ lockapi.Proc, k []byte)                             { r.DB.Delete(k) }
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
			switch (rng >> 20) % 3 {
			case 0:
				tg.s.Put(p0, k, []byte(fmt.Sprint(i)))
			case 1:
				tg.s.Delete(p0, k)
			case 2:
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
	// Operation counters aggregate identically (Runs/Compactions differ by
	// construction: per-shard memtables freeze at different times).
	wantStats := raw.Stats()
	for _, tg := range targets[1:] {
		st := tg.s.(*KVSession).StatsSnapshot(p0)
		if st.Gets != wantStats.Gets || st.Puts != wantStats.Puts || st.Deletes != wantStats.Deletes {
			t.Errorf("%s: ops %d/%d/%d, want %d/%d/%d", tg.name,
				st.Gets, st.Puts, st.Deletes, wantStats.Gets, wantStats.Puts, wantStats.Deletes)
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

// TestCrossShardScanTombstones: deletes scattered across shards (and across
// a range-partition boundary) disappear from the merged scan, including
// tombstones frozen into runs.
func TestCrossShardScanTombstones(t *testing.T) {
	for _, tc := range []struct {
		name string
		kv   *KV
	}{
		{"hash", openSharded(3, 0)},
		{"range", openSharded(3, 90)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.kv.NewSession()
			for i := 0; i < 90; i++ {
				s.Put(p0, kvstore.Key(i), []byte("v"))
			}
			s.Flush(p0) // values into runs on every shard
			// Delete around the range split points (29/30, 59/60) and a
			// scatter of others; the tombstones land on whichever shard owns
			// each key.
			for _, i := range []int{0, 29, 30, 59, 60, 89, 7, 42} {
				s.Delete(p0, kvstore.Key(i))
			}
			s.Flush(p0) // tombstones frozen too
			got := map[string]bool{}
			s.Scan(p0, kvstore.Key(0), nil, func(k, v []byte) bool {
				got[string(k)] = true
				return true
			})
			deleted := map[int]bool{0: true, 29: true, 30: true, 59: true, 60: true, 89: true, 7: true, 42: true}
			for i := 0; i < 90; i++ {
				want := !deleted[i]
				if got[string(kvstore.Key(i))] != want {
					t.Errorf("key %d present=%v, want %v", i, !want, want)
				}
			}
			if len(got) != 90-len(deleted) {
				t.Errorf("scan returned %d keys, want %d", len(got), 90-len(deleted))
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

// TestShardedOracle: the property-test satellite — random put/delete/get
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
			switch op % 4 {
			case 0, 3:
				v := fmt.Sprint(i)
				s.Put(p0, []byte(k), []byte(v))
				oracle[k] = v
			case 1:
				s.Delete(p0, []byte(k))
				delete(oracle, k)
			case 2:
				got, ok := s.Get(p0, []byte(k))
				want, wok := oracle[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
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
	if total := s.StatsSnapshot(p0); total.Puts != puts || total.Puts != 200 {
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
