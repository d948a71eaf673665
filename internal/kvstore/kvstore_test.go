package kvstore

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func put(s *skiplist, k, v string) { s.putEntry([]byte(k), []byte(v)) }

// get returns k's entry in s, found false if s never held k.
func get(s *skiplist, k string) (e entry, found bool) {
	if x := s.lookup([]byte(k), hashKey([]byte(k))); x != nil {
		return x.entry(), true
	}
	return entry{}, false
}

func TestSkiplistBasic(t *testing.T) {
	s := newSkiplist(1, 0)
	if _, found := get(s, "a"); found {
		t.Fatal("empty skiplist returned a value")
	}
	put(s, "b", "2")
	put(s, "a", "1")
	put(s, "c", "3")
	for k, v := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		got, found := get(s, k)
		if !found || string(got.value) != v {
			t.Errorf("get(%q) = %q,%v want %q", k, got.value, found, v)
		}
	}
	put(s, "b", "two")
	if got, _ := get(s, "b"); string(got.value) != "two" {
		t.Errorf("overwrite failed: %q", got.value)
	}
	if s.n != 3 {
		t.Errorf("n = %d, want 3", s.n)
	}
}

func TestSkiplistOrdered(t *testing.T) {
	s := newSkiplist(7, 0)
	for i := 999; i >= 0; i-- {
		s.putEntry(Key(i), []byte{byte(i)})
	}
	es := s.freeze().entries
	if len(es) != 1000 {
		t.Fatalf("entries = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if bytes.Compare(es[i-1].key, es[i].key) >= 0 {
			t.Fatalf("entries out of order at %d", i)
		}
	}
}

func TestDBPutGet(t *testing.T) {
	db := Open(Options{})
	for i := 0; i < 100; i++ {
		db.Put(Key(i), []byte(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 100; i++ {
		v, ok := db.Get(Key(i))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q,%v", i, v, ok)
		}
	}
	if _, ok := db.Get(Key(100)); ok {
		t.Error("absent key found")
	}
}

func TestDBFreezeAndReadThroughRuns(t *testing.T) {
	db := Open(Options{MemtableBytes: 1 << 10})
	for i := 0; i < 500; i++ {
		db.Put(Key(i), bytes.Repeat([]byte("x"), 50))
	}
	if st := db.Stats(); st.Runs == 0 {
		t.Fatal("no runs frozen despite tiny memtable threshold")
	}
	for i := 0; i < 500; i++ {
		if _, ok := db.Get(Key(i)); !ok {
			t.Fatalf("key %d lost after freeze", i)
		}
	}
}

func TestDBCompactionKeepsNewestValue(t *testing.T) {
	db := Open(Options{MemtableBytes: 512, MaxRuns: 2})
	for round := 0; round < 6; round++ {
		for i := 0; i < 50; i++ {
			db.Put(Key(i), []byte(fmt.Sprintf("r%d", round)))
		}
		db.Flush()
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	if st.Runs > 2+1 {
		t.Errorf("runs = %d after compaction", st.Runs)
	}
	for i := 0; i < 50; i++ {
		v, ok := db.Get(Key(i))
		if !ok || string(v) != "r5" {
			t.Fatalf("key %d = %q,%v; want newest round r5", i, v, ok)
		}
	}
}

// TestDBOracle: random op sequences match a map oracle.
func TestDBOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		db := Open(Options{MemtableBytes: 256, MaxRuns: 3, Seed: 42})
		oracle := map[string]string{}
		for i, op := range ops {
			k := string(Key(int(op % 37)))
			if op%3 == 0 { // put
				v := fmt.Sprintf("v%d", i)
				db.Put([]byte(k), []byte(v))
				oracle[k] = v
			} else { // get
				got, ok := db.Get([]byte(k))
				want, wok := oracle[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKeyFormat(t *testing.T) {
	if string(Key(42)) != "0000000000000042" {
		t.Errorf("Key(42) = %q", Key(42))
	}
	if bytes.Compare(Key(9), Key(10)) >= 0 {
		t.Error("keys do not sort numerically")
	}
	// The fixed-width encoder must agree with the %016d format it replaced,
	// across digit-count boundaries and beyond the fixed field.
	for _, i := range []int{0, 1, 9, 10, 99, 12345, 1e9, 1e15, 1e16, 1e16 + 27} {
		if got, want := string(Key(i)), fmt.Sprintf("%016d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
	buf := make([]byte, 0, KeyWidth)
	if got := string(AppendKey(buf, 7)); got != "0000000000000007" {
		t.Errorf("AppendKey = %q", got)
	}
}

// TestIncKey: incrementing Key(i) in place yields Key(i+1) across every
// carry, from one digit to all sixteen, up to the widest canonical key,
// past which it panics.
func TestIncKey(t *testing.T) {
	for _, r := range []struct{ from, to int }{
		{0, 1}, {9, 10}, {999_999, 1_000_000}, {0, 2_000}, {9_999_999_999_999_998, 1e16 - 1},
	} {
		key := Key(r.from)
		for i := r.from; i < r.to; i++ {
			IncKey(key)
			if want := Key(i + 1); !bytes.Equal(key, want) {
				t.Fatalf("IncKey(Key(%d)) = %q, want %q", i, key, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("IncKey(Key(1e16 - 1)) did not panic")
		}
	}()
	IncKey(Key(1e16 - 1))
}

// TestKeyAllocs guards the encoder satellite: AppendKey into a cap-sufficient
// buffer must not allocate, and Key must allocate exactly its result slice.
func TestKeyAllocs(t *testing.T) {
	buf := make([]byte, 0, KeyWidth)
	if n := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], 123456) }); n != 0 {
		t.Errorf("AppendKey allocates %.1f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Key(123456) }); n > 1 {
		t.Errorf("Key allocates %.1f times per op, want <= 1", n)
	}
}

// BenchmarkKey pins the hot-path cost of the fixed-width encoder (it runs on
// every op of every KV workload; the fmt.Sprintf it replaced was ~10x).
func BenchmarkKey(b *testing.B) {
	b.Run("Key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = Key(i)
		}
	})
	b.Run("AppendKey", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, KeyWidth)
		for i := 0; i < b.N; i++ {
			buf = AppendKey(buf[:0], i)
		}
	})
	b.Run("Sprintf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = []byte(fmt.Sprintf("%016d", i))
		}
	})
}

// preloadRuns fills a default-configured DB with db_bench-shaped entries
// (sequential keys, 100-byte values) until it holds runs frozen runs, then
// puts memKeys more keys into the memtable in scattered order, as updates
// fill a memtable after a bulk load. It returns the number of keys written;
// key 0 lies in the oldest run, the last memKeys in the memtable.
func preloadRuns(runs, memKeys int) (*DB, int) {
	db := Open(Options{})
	value := make([]byte, 100)
	n := 0
	for ; db.Stats().Runs < runs; n++ {
		db.Put(Key(n), value)
	}
	for i := 0; i < memKeys; i++ {
		db.Put(Key(n+i*7919%memKeys), value)
	}
	return db, n + memKeys
}

// TestDBGetAllocs: Get performs no heap allocation on any path — memtable
// hit, run hit, absent key.
func TestDBGetAllocs(t *testing.T) {
	db, n := preloadRuns(3, 10)
	for name, k := range map[string][]byte{"memtable": Key(n - 1), "oldest-run": Key(0), "absent": Key(n)} {
		if a := testing.AllocsPerRun(100, func() { db.Get(k) }); a != 0 {
			t.Errorf("Get (%s) allocates %.1f times per op, want 0", name, a)
		}
	}
}

// BenchmarkDBGet times the engine's Get on a DB preloaded to 8 runs (the
// shape the ycsb-b benchmark preloads per shard), for keys in the
// memtable, keys in the oldest run, keys scattered over all 8 runs (the
// ycsb-b read's shape), and absent keys.
func BenchmarkDBGet(b *testing.B) {
	const memKeys = 4096
	db, n := preloadRuns(8, memKeys)
	oldest := len((*db.runs.Load())[7].entries)
	for _, c := range []struct {
		name        string
		first, span int
		found       bool
	}{
		{"memtable", n - memKeys, memKeys, true},
		{"oldest-run", 0, oldest, true},
		{"runs", 0, n - memKeys, true},
		{"absent", n, n, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			key := make([]byte, 0, KeyWidth)
			for i := 0; i < b.N; i++ {
				// A multiplicative stride scatters keys over the span.
				key = AppendKey(key[:0], c.first+i*7919%c.span)
				if _, ok := db.Get(key); ok != c.found {
					b.Fatalf("Get(%s) found = %v, want %v", key, ok, c.found)
				}
			}
		})
	}
}

// BenchmarkDBPut times the engine's Put of 100-byte values on its two
// paths. overwrite Puts scattered keys already in a 1 MiB memtable: an index
// probe and a slot swap. insert Puts new keys in scattered order, one Put
// per DB in turn over 16 DBs with 1 MiB memtables (the ycsb-b benchmark's
// shards), so the memtable each Put searches has left the cache since that
// DB's last Put; this path sets the tail of a write.
func BenchmarkDBPut(b *testing.B) {
	value := make([]byte, 100)
	key := make([]byte, 0, KeyWidth)
	b.Run("overwrite", func(b *testing.B) {
		const keys = 4096
		db := Open(Options{})
		fill := func() { // in scattered order, so the index is built
			for k := 0; k < keys; k++ {
				db.Put(AppendKey(key[:0], k*7919%keys), value)
			}
		}
		fill()
		mem := db.mem.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key = AppendKey(key[:0], i*7919%keys)
			db.Put(key, value)
			if db.mem.Load() != mem {
				// The dead-space cap froze the memtable (about once
				// per 100,000 Puts): refill the new one.
				b.StopTimer()
				fill()
				mem = db.mem.Load()
				b.StartTimer()
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		// keys db_bench entries per memtable stay under its freeze point:
		// every round of shards×keys Puts starts on fresh DBs.
		const shards, keys = 16, 8192
		dbs := make([]*DB, shards)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%(shards*keys) == 0 {
				b.StopTimer()
				for d := range dbs {
					dbs[d] = Open(Options{})
				}
				runtime.GC()
				b.StartTimer()
			}
			key = AppendKey(key[:0], i/shards%keys*7919%keys)
			dbs[i%shards].Put(key, value)
		}
	})
}

// BenchmarkDBScan times a short bounded Scan — 50 consecutive keys from a
// scattered start, store.ScanHeavy's longest scan — on a DB preloaded to 8
// runs plus a memtable, merging all nine layers.
func BenchmarkDBScan(b *testing.B) {
	const memKeys, span = 4096, 50
	db, n := preloadRuns(8, memKeys)
	start, end := make([]byte, 0, KeyWidth), make([]byte, 0, KeyWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := i * 7919 % (n - span)
		start, end = AppendKey(start[:0], first), AppendKey(end[:0], first+span)
		got := 0
		db.Scan(start, end, func(_, _ []byte) bool { got++; return true })
		if got != span {
			b.Fatalf("Scan [%d,%d) visited %d keys, want %d", first, first+span, got, span)
		}
	}
}
