package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"github.com/clof-go/clof/internal/xrand"
)

// TestDBPutAllocs: a Put that does not freeze the memtable makes no heap
// allocation, whether it inserts or overwrites. Blocks are allocated once
// per hundreds of entries, which AllocsPerRun's per-run average truncates
// away; a per-Put allocation would not be.
func TestDBPutAllocs(t *testing.T) {
	db := Open(Options{})
	value := make([]byte, 100)
	key := make([]byte, 0, KeyWidth)
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		key = AppendKey(key[:0], i)
		db.Put(key, value)
		i++
	}); a != 0 {
		t.Errorf("inserting Put allocates %.1f times per op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		i--
		key = AppendKey(key[:0], i)
		db.Put(key, value)
	}); a != 0 {
		t.Errorf("overwriting Put allocates %.1f times per op, want 0", a)
	}
	if st := db.Stats(); st.Runs != 0 {
		t.Fatalf("%d runs: the Puts must not freeze", st.Runs)
	}
}

// TestOverwriteCapsBlocks: overwriting one key leaves one live entry but a
// dead value and slot per Put in the memtable's blocks; the dead-space cap
// freezes the memtable before its blocks reach arenaFactor × MemtableBytes.
func TestOverwriteCapsBlocks(t *testing.T) {
	const memtable, puts = 1 << 20, 1_000_000
	db := Open(Options{MemtableBytes: memtable})
	key, value := Key(7), make([]byte, 100)
	for i := 0; i < puts; i++ {
		value[0] = byte(i)
		db.Put(key, value)
		if mem := db.mem.Load(); mem.arena >= arenaFactor*memtable {
			t.Fatalf("put %d: memtable blocks hold %d bytes, cap %d", i, mem.arena, arenaFactor*memtable)
		}
	}
	if st := db.Stats(); st.Runs == 0 && st.Compactions == 0 {
		t.Fatal("the cap never froze the memtable")
	}
	if v, ok := db.Get(key); !ok || v[0] != byte((puts-1)%256) {
		t.Fatalf("Get = %v,%v: lost the newest value", v[:1], ok)
	}
}

// TestSkiplistAppendDifferential checks inserts against a map model: keys
// in ascending, descending and interleaved order, and Puts of the current
// last key, which must overwrite rather than insert. After every Put the
// skiplist must answer every Get like the model, list its entries in key
// order, keep each level sorted, and hold the node inserted k-th at the
// k-th height its generator draws — one draw per insert.
func TestSkiplistAppendDifferential(t *testing.T) {
	orders := map[string]func(i int) int{
		"ascending":   func(i int) int { return i },
		"descending":  func(i int) int { return 400 - i },
		"interleaved": func(i int) int { return i/2 + i%2*1000 },
		"repeat-last": func(i int) int { return i / 3 },
		"zigzag":      func(i int) int { return i * 7919 % 401 },
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			const seed = 5
			s := newSkiplist(seed, 1<<20)
			model := map[string]string{}
			var inserted []string // keys in insertion order
			for i := 0; i < 400; i++ {
				k, v := string(Key(order(i))), fmt.Sprint(i)
				if _, ok := model[k]; !ok {
					inserted = append(inserted, k)
				}
				model[k] = v
				s.putEntry([]byte(k), []byte(v))
				checkSkiplist(t, s, model)
			}
			ref := xrand.New(seed)
			heights := map[string]int{}
			for _, k := range inserted {
				h := 1
				for h < maxHeight && ref.Intn(4) == 0 {
					h++
				}
				heights[k] = h
			}
			for level := 0; level < maxHeight; level++ {
				for x := s.head.next[level].Load(); x != nil; x = x.next[level].Load() {
					if heights[string(x.key)] == 0 {
						t.Fatalf("key %s on level %d, above its drawn height", x.key, level)
					}
					heights[string(x.key)]--
				}
			}
			for k, h := range heights {
				if h != 0 {
					t.Fatalf("key %s on %d fewer levels than drawn", k, h)
				}
			}
		})
	}
}

// checkSkiplist compares s with model and checks each level's order, and
// that the fences list level fenceLevel.
func checkSkiplist(t *testing.T, s *skiplist, model map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	es := s.freeze().entries
	if len(es) != len(keys) || s.n != len(keys) {
		t.Fatalf("%d entries, n = %d, model %d", len(es), s.n, len(keys))
	}
	for i, k := range keys {
		if string(es[i].key) != k || string(es[i].value) != model[k] {
			t.Fatalf("entry %d = %s=%s, want %s=%s", i, es[i].key, es[i].value, k, model[k])
		}
		if e, ok := get(s, k); !ok || string(e.value) != model[k] {
			t.Fatalf("get(%s) = %s,%v, want %s", k, e.value, ok, model[k])
		}
	}
	for level := 0; level < maxHeight; level++ {
		x := s.head
		for nx := x.next[level].Load(); nx != nil; nx = nx.next[level].Load() {
			if x != s.head && bytes.Compare(x.key, nx.key) >= 0 {
				t.Fatalf("level %d out of order: %s before %s", level, x.key, nx.key)
			}
			x = nx
		}
	}
	i := 0
	for x := s.head.next[fenceLevel].Load(); x != nil; x, i = x.next[fenceLevel].Load(), i+1 {
		if i >= len(s.fences) || s.nodes.at(s.fences[i].ord) != x || s.fences[i].prefix != x.prefix {
			t.Fatalf("fence %d is not node %s of level %d", i, x.key, fenceLevel)
		}
		if h := int(s.fences[i].height); h <= fenceLevel || h < maxHeight && x.next[h].Load() != nil {
			t.Fatalf("fence %d has height %d, node %s is taller", i, h, x.key)
		}
	}
	if i != len(s.fences) {
		t.Fatalf("%d fences for %d nodes on level %d", len(s.fences), i, fenceLevel)
	}
}

// TestValuesFullSlice: every value Get and Scan return — from the
// memtable, a frozen run, a compacted run, and a value large enough for
// its own allocation — has cap == len, so a caller's append cannot write
// into the value stored next to it.
func TestValuesFullSlice(t *testing.T) {
	db := Open(Options{MaxRuns: 1})
	put := func(i int) {
		size := 10 + i
		if i == 3 {
			size = maxBlockBytes
		}
		db.Put(Key(i), bytes.Repeat([]byte{byte(i)}, size))
	}
	check := func(layer string) {
		t.Helper()
		for i := 0; i < 6; i++ {
			if v, ok := db.Get(Key(i)); !ok || cap(v) != len(v) {
				t.Errorf("%s: Get(%d) has len %d, cap %d (found %v)", layer, i, len(v), cap(v), ok)
			}
		}
		db.Scan(nil, nil, func(k, v []byte) bool {
			if cap(v) != len(v) {
				t.Errorf("%s: Scan value of %s has len %d, cap %d", layer, k, len(v), cap(v))
			}
			return true
		})
	}
	for i := 0; i < 6; i++ {
		put(i)
	}
	check("memtable")
	db.Flush()
	check("run")
	for i := 0; i < 6; i += 2 {
		put(i)
	}
	db.Flush() // exceeds MaxRuns -> compaction
	if st := db.Stats(); st.Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	check("compacted")
}

// TestCompactionCopiesLive: a compaction copies every live key and value
// into the merged run's own blocks, so no compacted entry aliases a block
// of the memtable it was frozen from (which may hold dead values too).
func TestCompactionCopiesLive(t *testing.T) {
	db := Open(Options{MaxRuns: 1})
	for i := 0; i < 100; i++ {
		db.Put(Key(i%10), []byte(fmt.Sprint(i)))
	}
	db.Flush()
	before := map[int]*byte{}
	for i := 0; i < 10; i++ {
		v, _ := db.Get(Key(i))
		before[i] = &v[0]
	}
	db.Put(Key(10), []byte("x"))
	db.Flush() // exceeds MaxRuns -> compaction
	if st := db.Stats(); st.Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	for i := 0; i < 10; i++ {
		v, ok := db.Get(Key(i))
		if !ok || string(v) != fmt.Sprint(90+i) {
			t.Fatalf("Get(%d) = %q,%v, want %d", i, v, ok, 90+i)
		}
		if &v[0] == before[i] {
			t.Errorf("compacted value of key %d aliases its memtable block", i)
		}
	}
}
