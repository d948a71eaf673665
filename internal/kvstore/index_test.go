package kvstore

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/clof-go/clof/internal/xrand"
)

// indexLen is the length of s's index table, 0 before it is built.
func indexLen(s *skiplist) int {
	if t := s.index.Load(); t != nil {
		return len(t.slots)
	}
	return 0
}

// TestNodeLayout pins what the search's cache behaviour rests on: a node is
// two cache lines, its prefix and next pointers up to level 5 share the
// first, and the blocks of a 256 KiB or larger memtable start their nodes on
// a line. It also pins a value slot and a run entry at their slice headers
// alone.
func TestNodeLayout(t *testing.T) {
	var x skipNode
	if nodeBytes != 128 {
		t.Errorf("node is %d bytes, want 128", nodeBytes)
	}
	if slotBytes != 24 || unsafe.Sizeof(entry{}) != 48 {
		t.Errorf("slot is %d bytes, entry %d, want 24 and 48", slotBytes, unsafe.Sizeof(entry{}))
	}
	if end := unsafe.Offsetof(x.next) + 6*unsafe.Sizeof(x.next[0]); unsafe.Offsetof(x.prefix) != 0 || end > 64 {
		t.Errorf("prefix and next[0:6] end at byte %d, want within the first line", end)
	}
	for _, mb := range []int{256 << 10, 1 << 20} {
		s := newSkiplist(1, mb)
		for i := 0; i < 3<<s.nodes.shift; i++ {
			x, _ := s.nodes.alloc()
			if addr := uintptr(unsafe.Pointer(x)); addr%64 != 0 {
				t.Fatalf("%d KiB memtable: node %d at %#x is not line-aligned", mb>>10, i, addr)
			}
		}
	}
}

// TestIndexDifferential drives puts, overwrites, in-order bursts, freezes
// and compactions of small entries through a DB and checks every key
// against a map model after each batch. Entries of 21 bytes against a
// presize for 128-byte ones make each memtable grow its index, and at least
// one grows it twice.
func TestIndexDifferential(t *testing.T) {
	const keys = 3000
	db := Open(Options{MemtableBytes: 16 << 10, MaxRuns: 3, Seed: 9})
	rng := xrand.New(3)
	model := map[string]string{}
	maxGrowths, next := 0, keys
	for batch := 0; batch < 60; batch++ {
		mem := db.mem.Load()
		for i := 0; i < 200; i++ {
			var k []byte
			if batch%7 == 3 {
				k = Key(next) // a burst in key order
				next++
			} else {
				k = Key(rng.Intn(keys))
			}
			v := fmt.Sprintf("%04d", (batch*200+i)%10000)
			db.Put(k, []byte(v))
			model[string(k)] = v
			if db.mem.Load() != mem {
				mem = db.mem.Load()
			} else if first := indexLen(mem); first > 0 {
				growths := 0
				for n := indexSlots(16 << 10); n < first; n *= 2 {
					growths++
				}
				maxGrowths = max(maxGrowths, growths)
			}
			if batch%13 == 5 && i == 100 {
				db.Flush()
			}
		}
		for i := 0; i < next; i++ {
			k := Key(i)
			got, ok := db.Get(k)
			want, wok := model[string(k)]
			if ok != wok || ok && string(got) != want {
				t.Fatalf("batch %d: Get(%s) = %q,%v, want %q,%v", batch, k, got, ok, want, wok)
			}
		}
	}
	if st := db.Stats(); st.Compactions == 0 {
		t.Fatalf("stats %+v: the test must compact", st)
	}
	if maxGrowths < 2 {
		t.Fatalf("memtable indexes grew at most %d times, want 2", maxGrowths)
	}
}

// TestIndexPresizeHolds: a memtable of db_bench entries (16-byte keys,
// 100-byte values) filled to its freeze point in scattered order never
// grows its index, at the two benchmark thresholds, so no benchmark Put
// rehashes inside its critical section.
func TestIndexPresizeHolds(t *testing.T) {
	for _, mb := range []int{256 << 10, 1 << 20} {
		s := newSkiplist(1, mb)
		value := make([]byte, 100)
		n := 0
		for i := 0; !s.full(mb); i++ {
			s.putEntry(Key(i*7919%(mb/64)), value)
			n = s.n
		}
		if got, want := indexLen(s), indexSlots(mb); got != want {
			t.Fatalf("%d KiB: index has %d slots at the freeze point, presized %d", mb>>10, got, want)
		}
		t.Logf("%d KiB: %d keys in %d slots, %.1f%% load", mb>>10, n, indexSlots(mb), 100*float64(n)/float64(indexSlots(mb)))
	}
}

// TestOptimisticGetsAcrossGrowth is the index's -race check: optimistic
// Gets run beside a single writer whose scattered Puts of small entries
// grow each memtable's index twice and freeze it, bracketed by a sequence
// counter as the seqlock brackets them. A Get whose counter moved
// is discarded; every other Get must return the model's value as of the
// writes completed before it began.
func TestOptimisticGetsAcrossGrowth(t *testing.T) {
	const keys, writes, readers = 1500, 6000, 2
	type write struct {
		key   int
		value string
	}
	ws := make([]write, writes)
	rng := xrand.New(11)
	history := make([][]int, keys) // per key, the indexes of its writes
	for i := range ws {
		ws[i] = write{key: rng.Intn(keys), value: fmt.Sprintf("v%d", i)}
		history[ws[i].key] = append(history[ws[i].key], i)
	}
	// modelAt returns key k's value after the first done writes.
	modelAt := func(k, done int) (string, bool) {
		h := history[k]
		j := len(h)
		for j > 0 && h[j-1] >= done {
			j--
		}
		if j == 0 {
			return "", false
		}
		return ws[h[j-1]].value, true
	}

	db := Open(Options{MemtableBytes: 32 << 10, MaxRuns: 4, Seed: 2})
	var seq atomic.Uint64
	var stop atomic.Bool
	var validated, discarded atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + r))
			buf := make([]byte, 0, 16)
			for !stop.Load() {
				s1 := seq.Load()
				if s1&1 != 0 {
					continue
				}
				k := rng.Intn(keys)
				v, ok := db.Get(Key(k))
				buf = append(buf[:0], v...)
				if seq.Load() != s1 {
					discarded.Add(1)
					continue
				}
				validated.Add(1)
				if want, wok := modelAt(k, int(s1/2)); ok != wok || !bytes.Equal(buf, []byte(want)) {
					t.Errorf("after %d writes Get(%d) = %q,%v, want %q,%v", s1/2, k, buf, ok, want, wok)
					stop.Store(true)
				}
			}
		}(r)
	}
	growths := 0
	for i, w := range ws {
		if i%32 == 0 {
			// Let the readers validate some Gets between every few writes.
			for v := validated.Load(); validated.Load() < v+8 && !stop.Load(); {
				runtime.Gosched()
			}
		}
		mem, n := db.mem.Load(), indexLen(db.mem.Load())
		seq.Add(1)
		db.Put(Key(w.key), []byte(w.value))
		seq.Add(1)
		if db.mem.Load() == mem && n > 0 && indexLen(mem) > n {
			growths++
		}
	}
	stop.Store(true)
	wg.Wait()
	if growths < 2 || validated.Load() == 0 {
		t.Fatalf("%d growths, %d validated Gets: the test must grow indexes under validated reads", growths, validated.Load())
	}
	t.Logf("%d growths; %d Gets validated, %d discarded", growths, validated.Load(), discarded.Load())
}

// TestRunIndexDifferential checks every run index against a binary search
// of its run: runs frozen from memtables of scattered puts and overwrites,
// runs bulk-loaded, a compaction whose output outgrows the index sized for
// its largest input, and a compaction of runs holding the same keys. Every
// stored key must be found at the position the binary search gives, 10,000
// absent keys must not be found, and no table may be more than 3/4 full.
func TestRunIndexDifferential(t *testing.T) {
	absent := make([][]byte, 10000)
	for i := range absent {
		absent[i] = append(Key(i), 'x') // sorts among the keys, equal to none
	}
	checked := map[*run]string{}
	check := func(db *DB, how string) {
		t.Helper()
		for _, r := range *db.runs.Load() {
			if _, ok := checked[r]; ok {
				continue
			}
			checked[r] = how
			used := 0
			for i := range r.index.slots {
				if r.index.slots[i].Load() != 0 {
					used++
				}
			}
			if used != len(r.entries) || 4*used > 3*len(r.index.slots) {
				t.Fatalf("%s: %d entries, %d of %d index slots used, want all indexed at most 3/4 full", how, len(r.entries), used, len(r.index.slots))
			}
			for _, e := range r.entries {
				want := sort.Search(len(r.entries), func(j int) bool { return bytes.Compare(r.entries[j].key, e.key) >= 0 })
				if got, ok := r.find(e.key, hashKey(e.key)); !ok || got != want {
					t.Fatalf("%s: find(%s) = %d,%v, want %d", how, e.key, got, ok, want)
				}
			}
			for _, k := range absent {
				if i, ok := r.find(k, hashKey(k)); ok {
					t.Fatalf("%s: absent key %s found at %d", how, k, i)
				}
			}
		}
	}

	// Freezes of scattered puts, then compactions once the runs pass
	// MaxRuns.
	db := Open(Options{MemtableBytes: 8 << 10, MaxRuns: 3, Seed: 4})
	rng := xrand.New(8)
	for i := 0; i < 6000; i++ {
		db.Put(Key(rng.Intn(3000)), []byte("value"))
		check(db, "scattered puts")
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("the puts must compact")
	}

	// A bulk load, then a compaction of disjoint runs: the merged run holds
	// three times the entries of its largest input, so its index grows.
	db = Open(Options{MemtableBytes: 4 << 10, MaxRuns: 3, Seed: 6})
	db.Load(100, func(i int) ([]byte, []byte) { return Key(i), []byte("v") })
	check(db, "load")
	for n := 100; db.Stats().Compactions == 0; n++ {
		db.Put(Key(n), []byte("v"))
		check(db, "freeze")
	}
	if rs := *db.runs.Load(); len(rs) != 1 || len(rs[0].entries) == 0 {
		t.Fatal("the compaction must leave one non-empty run")
	}
	check(db, "compaction")

	// Three runs holding the same keys: the compaction keeps one entry per
	// key, the newest.
	db = Open(Options{MaxRuns: 2})
	for _, v := range []string{"a", "b", "c"} {
		for i := 0; i < 50; i++ {
			db.Put(Key(i), []byte(v))
		}
		db.Flush()
		check(db, "freeze")
	}
	if rs := *db.runs.Load(); len(rs) != 1 || len(rs[0].entries) != 50 || string(rs[0].entries[0].value) != "c" {
		t.Fatal("the compaction must leave one run of the newest 50 entries")
	}
	check(db, "overlapping compaction")
	t.Logf("%d runs checked", len(checked))
}
