package store

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/clof-go/clof/internal/kyoto"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
)

// TestCacheOracle: the sharded cache matches a map oracle for unbounded
// capacity (eviction is per shard, so only capacity-free runs compare
// exactly against a global oracle).
func TestCacheOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		c := OpenCache(CacheOptions{Shards: 1 + int(len(ops))%4, Shard: kyoto.Options{Buckets: 8}})
		s := c.NewSession()
		oracle := map[string]string{}
		for i, op := range ops {
			k := fmt.Sprint(op % 31)
			switch op % 3 {
			case 0:
				v := fmt.Sprint(i)
				s.Set(p0, k, []byte(v))
				oracle[k] = v
			case 1:
				got, ok := s.Get(p0, k)
				want, wok := oracle[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			case 2:
				if s.Remove(p0, k) != (func() bool { _, ok := oracle[k]; return ok })() {
					return false
				}
				delete(oracle, k)
			}
		}
		return c.Count() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCachePerShardEviction: per-shard capacity bounds the total and
// evictions are attributed to the shard that performed them.
func TestCachePerShardEviction(t *testing.T) {
	c := OpenCache(CacheOptions{Shards: 4, Shard: kyoto.Options{Capacity: 10}})
	s := c.NewSession()
	for i := 0; i < 400; i++ {
		s.Set(p0, fmt.Sprint(i), nil)
	}
	if n := c.Count(); n > 40 {
		t.Errorf("count %d exceeds total capacity 40", n)
	}
	per := s.ShardStats(p0)
	st := sumStats(per)
	if st.Evictions == 0 {
		t.Error("no evictions despite 10x overload")
	}
	if st.Sets != 400 {
		t.Errorf("sets = %d, want 400", st.Sets)
	}
	active := 0
	for _, sh := range per {
		if sh.Evictions > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("evictions concentrated on %d shards; hash routing should spread them", active)
	}
}

// TestCacheConcurrent: shard locks exclude concurrent mutators, for one
// shard and for several, under a capacity that keeps the LRU evicting.
// Afterwards every key is removed: a hash chain or LRU list corrupted by a
// race would leave records behind (or crash the unlink).
func TestCacheConcurrent(t *testing.T) {
	const workers, ops, keys, capacity = 4, 2000, 300, 100
	for _, name := range []string{"tkt", "mcs"} {
		for _, shards := range []int{1, 4} {
			name, shards := name, shards
			t.Run(fmt.Sprintf("%s-%d", name, shards), func(t *testing.T) {
				c := OpenCache(CacheOptions{
					Shards:  shards,
					NewLock: func(int) lockapi.Lock { return locks.MustType(name).New() },
					Shard:   kyoto.Options{Capacity: capacity},
				})
				sessions := make([]*CacheSession, workers)
				for i := range sessions {
					sessions[i] = c.NewSession()
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						p := lockapi.NewNativeProc(id)
						for i := 0; i < ops; i++ {
							k := fmt.Sprint((id*31 + i) % keys)
							switch i % 4 {
							case 0:
								sessions[id].Set(p, k, []byte(k))
							case 3:
								sessions[id].Remove(p, k)
							default:
								sessions[id].Get(p, k)
							}
						}
					}(w)
				}
				wg.Wait()
				if n := c.Count(); n > shards*capacity {
					t.Errorf("count %d exceeds total capacity %d", n, shards*capacity)
				}
				s := c.NewSession()
				st := sumStats(s.ShardStats(p0))
				if st.Gets == 0 || st.Sets == 0 || st.Removes == 0 {
					t.Errorf("op kinds missing: gets=%d sets=%d removes=%d", st.Gets, st.Sets, st.Removes)
				}
				if got := st.Gets + st.Sets + st.Removes; got != workers*ops {
					t.Errorf("ops accounted = %d, want %d", got, workers*ops)
				}
				for k := 0; k < keys; k++ {
					s.Remove(p0, fmt.Sprint(k))
				}
				if n := c.Count(); n != 0 {
					t.Errorf("%d records left after removing every key", n)
				}
			})
		}
	}
}

// TestCacheSetCopiesValue: a caller reusing its value buffer must not
// rewrite records already in the cache, on the insert and the overwrite
// path alike.
func TestCacheSetCopiesValue(t *testing.T) {
	s := OpenCache(CacheOptions{}).NewSession()
	buf := []byte("first")
	s.Set(p0, "k", buf) // insert
	copy(buf, "XXXXX")
	if v, _ := s.Get(p0, "k"); string(v) != "first" {
		t.Errorf("after insert and buffer reuse Get = %q, want %q", v, "first")
	}
	buf = []byte("second")
	s.Set(p0, "k", buf) // overwrite
	copy(buf, "YYYYYY")
	if v, _ := s.Get(p0, "k"); string(v) != "second" {
		t.Errorf("after overwrite and buffer reuse Get = %q, want %q", v, "second")
	}
}
