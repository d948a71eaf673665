package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func put(s *skiplist, k, v string) { s.putEntry(entry{key: []byte(k), value: []byte(v)}) }

func TestSkiplistBasic(t *testing.T) {
	s := newSkiplist(1)
	if _, found := s.get([]byte("a")); found {
		t.Fatal("empty skiplist returned a value")
	}
	put(s, "b", "2")
	put(s, "a", "1")
	put(s, "c", "3")
	for k, v := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		got, found := s.get([]byte(k))
		if !found || string(got.value) != v {
			t.Errorf("get(%q) = %q,%v want %q", k, got.value, found, v)
		}
	}
	put(s, "b", "two")
	if got, _ := s.get([]byte("b")); string(got.value) != "two" {
		t.Errorf("overwrite failed: %q", got.value)
	}
	if s.n != 3 {
		t.Errorf("n = %d, want 3", s.n)
	}
}

func TestSkiplistOrdered(t *testing.T) {
	s := newSkiplist(7)
	for i := 999; i >= 0; i-- {
		s.putEntry(entry{key: Key(i), value: []byte{byte(i)}})
	}
	es := s.entries()
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
