package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// diffDB returns the first difference between two DBs — run count, each
// run's entries, filter words and index slots, Stats, and the heights the next memtable
// draws — or "" if there is none. The heights are compared by putting the
// same scattered keys into both memtables and listing each level, so the
// DBs are no longer equal after the call.
func diffDB(a, b *DB) string {
	ra, rb := *a.runs.Load(), *b.runs.Load()
	if len(ra) != len(rb) {
		return fmt.Sprintf("%d runs, want %d", len(ra), len(rb))
	}
	for i := range ra {
		ea, eb := ra[i].entries, rb[i].entries
		if len(ea) != len(eb) {
			return fmt.Sprintf("run %d: %d entries, want %d", i, len(ea), len(eb))
		}
		for j := range ea {
			if !bytes.Equal(ea[j].key, eb[j].key) || !bytes.Equal(ea[j].value, eb[j].value) {
				return fmt.Sprintf("run %d entry %d: %q=%q, want %q=%q", i, j, ea[j].key, ea[j].value, eb[j].key, eb[j].value)
			}
		}
		fa, fb := ra[i].filter.words, rb[i].filter.words
		if len(fa) != len(fb) {
			return fmt.Sprintf("run %d: %d filter words, want %d", i, len(fa), len(fb))
		}
		for w := range fa {
			if fa[w].Load() != fb[w].Load() {
				return fmt.Sprintf("run %d: filter word %d differs", i, w)
			}
		}
		ia, ib := ra[i].index.slots, rb[i].index.slots
		if len(ia) != len(ib) {
			return fmt.Sprintf("run %d: %d index slots, want %d", i, len(ia), len(ib))
		}
		for w := range ia {
			if ia[w].Load() != ib[w].Load() {
				return fmt.Sprintf("run %d: index slot %d differs", i, w)
			}
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		return fmt.Sprintf("stats %+v, want %+v", sa, sb)
	}
	if ma, mb := a.mem.Load(), b.mem.Load(); ma.n != 0 || mb.n != 0 {
		return fmt.Sprintf("memtables hold %d and %d entries, want empty", ma.n, mb.n)
	}
	for i := 0; i < 300; i++ {
		k := Key(i * 7919 % 1000)
		a.mem.Load().putEntry(k, nil)
		b.mem.Load().putEntry(k, nil)
	}
	if la, lb := levels(a.mem.Load()), levels(b.mem.Load()); la != lb {
		return "next memtable's heights differ"
	}
	return ""
}

// levels lists s's keys level by level.
func levels(s *skiplist) string {
	var sb strings.Builder
	for level := 0; level < maxHeight; level++ {
		for x := s.head.next[level].Load(); x != nil; x = x.next[level].Load() {
			sb.Write(x.key)
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestLoadMatchesPuts: Load leaves a DB identical to the one Puts of the
// same entries and a Flush leave — cut into the same runs, with the same
// entries, filters, indexes, counters and next memtable. db-bench entries
// cut runs on the live-byte trigger; 4-byte keys with empty values carve 33
// bytes of blocks per live byte, so the dead-space cap cuts them first; the
// last case loads past MaxRuns and compacts.
func TestLoadMatchesPuts(t *testing.T) {
	dbBench := func(i int) ([]byte, []byte) { return Key(i), make([]byte, 100) }
	tiny := func(i int) ([]byte, []byte) { return binary.BigEndian.AppendUint32(nil, uint32(i)), nil }
	for _, c := range []struct {
		name       string
		opts       Options
		n          int
		at         func(i int) ([]byte, []byte)
		runs       int  // runs the load must leave
		compacts   bool // whether it must compact
		arenaFirst bool // whether the dead-space cap cuts the runs
	}{
		{"db-bench", Options{MemtableBytes: 64 << 10, Seed: 3}, 3000, dbBench, 6, false, false},
		{"tiny-arena-cap", Options{MemtableBytes: 4 << 10, Seed: 5}, 2000, tiny, 5, false, true},
		{"compacting", Options{MemtableBytes: 4 << 10, MaxRuns: 3, Seed: 7}, 500, dbBench, 2, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			loaded, put := Open(c.opts), Open(c.opts)
			loaded.Load(c.n, c.at)
			for i := 0; i < c.n; i++ {
				k, v := c.at(i)
				put.Put(k, v)
				if m := put.mem.Load(); c.arenaFirst && m.bytes >= c.opts.MemtableBytes {
					t.Fatalf("put %d: live bytes reached the threshold before the dead-space cap", i)
				}
			}
			put.Flush()
			st := loaded.Stats()
			if st.Runs != c.runs || st.Compactions > 0 != c.compacts {
				t.Fatalf("load left %+v, want %d runs, compactions %v", st, c.runs, c.compacts)
			}
			for i := 0; i < c.n; i++ {
				k, v := c.at(i)
				for _, db := range []*DB{loaded, put} {
					if got, ok := db.Get(k); !ok || !bytes.Equal(got, v) {
						t.Fatalf("Get(%q) = %q,%v", k, got, ok)
					}
				}
			}
			if d := diffDB(loaded, put); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// TestLoadPanics: Load refuses a DB holding an entry, in its memtable or a
// run, and keys that are not strictly ascending, also where the repeated
// key is the last one of a run already cut (nine db_bench entries fill a
// 1 KiB memtable) or the bad key comes runs after the first cut. A refused
// Load publishes nothing: the DB keeps the runs, memtable and counters it
// had.
func TestLoadPanics(t *testing.T) {
	const memtable = 1 << 10
	seq := func(ids ...int) func(i int) ([]byte, []byte) {
		return func(i int) ([]byte, []byte) { return Key(ids[i]), make([]byte, 100) }
	}
	db := Open(Options{MemtableBytes: memtable})
	db.Load(9, seq(0, 1, 2, 3, 4, 5, 6, 7, 8))
	if st := db.Stats(); st.Runs != 1 || db.mem.Load().n != 0 {
		t.Fatalf("nine entries left %+v and %d in the memtable, want one run", st, db.mem.Load().n)
	}
	for _, c := range []struct {
		name string
		prep func(db *DB)
		ids  []int
		want string
	}{
		{"memtable-entry", func(db *DB) { db.Put(Key(0), nil) }, []int{1}, "non-empty"},
		{"run", func(db *DB) { db.Put(Key(0), nil); db.Flush() }, []int{1}, "non-empty"},
		{"overwrite", func(db *DB) { db.Put(Key(0), nil); db.Put(Key(0), []byte("v")) }, []int{1}, "non-empty"},
		{"repeat", func(*DB) {}, []int{0, 1, 1, 2}, "ascending"},
		{"descending", func(*DB) {}, []int{0, 2, 1}, "ascending"},
		{"repeat-across-cut", func(*DB) {}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 8}, "ascending"},
		{"below-across-cut", func(*DB) {}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 3}, "ascending"},
		{"after-two-cuts", func(*DB) {}, append(ascending(20), 19), "ascending"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := Open(Options{MemtableBytes: memtable})
			c.prep(db)
			before, mem := db.Stats(), db.mem.Load()
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Fatalf("recovered %v, want a panic naming %q", r, c.want)
				}
				if st := db.Stats(); st != before || db.mem.Load() != mem {
					t.Fatalf("refused Load left %+v and a new memtable, want %+v and the old one", st, before)
				}
			}()
			db.Load(len(c.ids), seq(c.ids...))
		})
	}
}

// ascending returns 0, 1, …, n−1.
func ascending(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
