package kyoto

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
)

func TestSetGetRemove(t *testing.T) {
	db := Open(Options{})
	if _, ok := db.Get("a"); ok {
		t.Fatal("empty DB returned a value")
	}
	db.Set("a", []byte("1"))
	db.Set("b", []byte("2"))
	if v, ok := db.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q,%v", v, ok)
	}
	db.Set("a", []byte("one"))
	if v, _ := db.Get("a"); string(v) != "one" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if db.Count() != 2 {
		t.Errorf("Count = %d, want 2", db.Count())
	}
	if !db.Remove("a") {
		t.Error("Remove(a) = false")
	}
	if db.Remove("a") {
		t.Error("second Remove(a) = true")
	}
	if _, ok := db.Get("a"); ok {
		t.Error("removed key still present")
	}
	if db.Count() != 1 {
		t.Errorf("Count = %d, want 1", db.Count())
	}
}

func TestCollisionChains(t *testing.T) {
	// One bucket forces every key onto a single chain.
	db := Open(Options{Buckets: 1})
	for i := 0; i < 100; i++ {
		db.Set(fmt.Sprint(i), []byte{byte(i)})
	}
	for i := 0; i < 100; i++ {
		v, ok := db.Get(fmt.Sprint(i))
		if !ok || v[0] != byte(i) {
			t.Fatalf("chained key %d = %v,%v", i, v, ok)
		}
	}
	for i := 0; i < 100; i += 2 {
		if !db.Remove(fmt.Sprint(i)) {
			t.Fatalf("Remove(%d) failed", i)
		}
	}
	for i := 0; i < 100; i++ {
		_, ok := db.Get(fmt.Sprint(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after removals key %d present=%v want %v", i, ok, want)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	db := Open(Options{Capacity: 3})
	db.Set("a", nil)
	db.Set("b", nil)
	db.Set("c", nil)
	db.Get("a") // refresh a; b is now LRU
	db.Set("d", nil)
	if _, ok := db.Get("b"); ok {
		t.Error("LRU victim b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := db.Get(k); !ok {
			t.Errorf("key %s wrongly evicted", k)
		}
	}
	if st := db.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if db.Count() != 3 {
		t.Errorf("Count = %d, want capacity 3", db.Count())
	}
}

// TestOracle: random operation sequences match a map oracle (no capacity).
func TestOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		db := Open(Options{Buckets: 8})
		oracle := map[string]string{}
		for i, op := range ops {
			k := fmt.Sprint(op % 23)
			switch op % 3 {
			case 0:
				v := fmt.Sprint(i)
				db.Set(k, []byte(v))
				oracle[k] = v
			case 1:
				got, ok := db.Get(k)
				want, wok := oracle[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			case 2:
				if db.Remove(k) != (func() bool { _, ok := oracle[k]; return ok })() {
					return false
				}
				delete(oracle, k)
			}
		}
		return len(oracle) == db.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentAccessWithLocks drives one CacheDB from several goroutines
// that serialize every operation through a real spinlock, as the engine's
// caller-serialized contract requires, and then checks that the hash chains
// and the LRU list survived intact.
func TestConcurrentAccessWithLocks(t *testing.T) {
	for _, name := range []string{"tkt", "mcs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			db := Open(Options{Capacity: 500})
			lk := locks.MustType(name).New()
			const workers = 8
			ctxs := make([]lockapi.Ctx, workers)
			for i := range ctxs {
				ctxs[i] = lk.NewCtx()
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					p := lockapi.NewNativeProc(id)
					for i := 0; i < 2000; i++ {
						k := fmt.Sprint((id*31 + i) % 400)
						lk.Acquire(p, ctxs[id])
						switch i % 4 {
						case 0:
							db.Set(k, []byte(k))
						case 3:
							db.Remove(k)
						default:
							db.Get(k)
						}
						lk.Release(p, ctxs[id])
					}
				}(w)
			}
			wg.Wait()
			if db.Count() > 500 {
				t.Errorf("capacity exceeded: %d", db.Count())
			}
			if st := db.Stats(); st.Gets+st.Sets+st.Removes != workers*2000 {
				t.Errorf("ops accounted = %d, want %d", st.Gets+st.Sets+st.Removes, workers*2000)
			}
			// Structural integrity: the LRU list is consistent with the
			// count, and every record in it is reachable through its chain.
			n := 0
			for cur := db.lruHead; cur != nil; cur = cur.lruNext {
				n++
				if n > db.Count()+1 {
					t.Fatal("LRU list longer than count (cycle?)")
				}
				if db.findLocked(cur.bucketSlot, cur.key) != cur {
					t.Fatalf("record %q on the LRU list is not on its hash chain", cur.key)
				}
			}
			if n != db.Count() {
				t.Errorf("LRU list has %d records, count says %d", n, db.Count())
			}
		})
	}
}
