package kvstore

import (
	"fmt"
	"testing"

	"github.com/clof-go/clof/internal/xrand"
)

// TestFilterNoFalseNegatives drives random puts and overwrites of keys of
// random length through freezes and compactions, and checks after every
// batch that each run's filter holds every key the run stores; that the
// memtable's index finds each of its keys and the filter its freeze would
// build from the stored hashes holds them all; and that Get agrees with a
// map oracle.
func TestFilterNoFalseNegatives(t *testing.T) {
	db := Open(Options{MemtableBytes: 2048, MaxRuns: 3, Seed: 5})
	rng := xrand.New(17)
	oracle := map[string]string{}
	var written []string
	for batch := 0; batch < 60; batch++ {
		for i := 0; i < 50; i++ {
			var k string
			if len(written) > 0 && rng.Intn(2) == 0 {
				k = written[rng.Intn(len(written))]
			} else {
				b := make([]byte, rng.Intn(25))
				for j := range b {
					b[j] = byte(rng.Intn(256))
				}
				k = string(b)
				written = append(written, k)
			}
			v := fmt.Sprint(batch, ".", i)
			db.Put([]byte(k), []byte(v))
			oracle[k] = v
		}
		mem := db.mem.Load()
		layers := append([]*run{mem.freeze()}, *db.runs.Load()...)
		for li, l := range layers {
			for _, e := range l.entries {
				h := hashKey(e.key)
				if !l.filter.mayContain(h) {
					t.Fatalf("batch %d: layer %d filter misses stored key %q", batch, li, e.key)
				}
				if li > 0 {
					continue
				}
				if x := mem.lookup(e.key, h); x == nil {
					t.Fatalf("batch %d: memtable index misses stored key %q", batch, e.key)
				}
			}
		}
		for _, k := range written {
			got, ok := db.Get([]byte(k))
			want, wok := oracle[k]
			if ok != wok || (ok && string(got) != want) {
				t.Fatalf("batch %d: Get(%q) = %q,%v want %q,%v", batch, k, got, ok, want, wok)
			}
		}
	}
	if st := db.Stats(); st.Compactions == 0 || st.Runs == 0 {
		t.Fatalf("stats %+v: the test must freeze and compact", st)
	}
}

// TestFilterFalsePositiveRate bounds the false-positive rate at the shipped
// density, for a filter sized by key count (a compaction's) and for the one
// a freeze builds from a memtable filled to its freeze threshold with
// db_bench-shaped entries. A filter that always answers "maybe" fails it.
func TestFilterFalsePositiveRate(t *testing.T) {
	const absent = 100000
	check := func(t *testing.T, f *filter, present int) {
		for i := 0; i < present; i++ {
			if !f.mayContain(hashKey(Key(i))) {
				t.Fatalf("false negative for key %d", i)
			}
		}
		fp := 0
		for i := present; i < present+absent; i++ {
			if f.mayContain(hashKey(Key(i))) {
				fp++
			}
		}
		rate := float64(fp) / absent
		t.Logf("%d keys: %d of %d absent keys pass (%.3f%%)", present, fp, absent, 100*rate)
		if rate > 0.02 {
			t.Errorf("false-positive rate %.2f%% > 2%%", 100*rate)
		}
	}
	t.Run("by-count", func(t *testing.T) {
		const n = 10000
		f := newFilter(n)
		for i := 0; i < n; i++ {
			f.add(hashKey(Key(i)))
		}
		check(t, &f, n)
	})
	t.Run("memtable", func(t *testing.T) {
		const memtable = 1 << 20
		s := newSkiplist(1, memtable)
		value := make([]byte, 100)
		for i := 0; s.bytes < memtable; i++ {
			s.putEntry(Key(i), value)
		}
		r := s.freeze()
		check(t, &r.filter, s.n)
	})
}
