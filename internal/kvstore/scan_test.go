package kvstore

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDeleteBasics(t *testing.T) {
	db := Open(Options{})
	db.Put(Key(1), []byte("v1"))
	db.Delete(Key(1))
	if _, ok := db.Get(Key(1)); ok {
		t.Fatal("deleted key still readable")
	}
	// Re-insert after delete.
	db.Put(Key(1), []byte("v2"))
	if v, ok := db.Get(Key(1)); !ok || string(v) != "v2" {
		t.Fatalf("reinserted key = %q,%v", v, ok)
	}
	// Deleting an absent key is a no-op read-wise.
	db.Delete(Key(99))
	if _, ok := db.Get(Key(99)); ok {
		t.Fatal("phantom key after deleting absent key")
	}
}

// TestTombstoneShadowsOlderRuns: a delete in the memtable must shadow a
// value frozen into an older run, and survive its own freeze.
func TestTombstoneShadowsOlderRuns(t *testing.T) {
	db := Open(Options{})
	db.Put(Key(5), []byte("old"))
	db.Flush() // value now in a run
	db.Delete(Key(5))
	if _, ok := db.Get(Key(5)); ok {
		t.Fatal("tombstone did not shadow the run value")
	}
	db.Flush() // tombstone itself frozen into a newer run
	if _, ok := db.Get(Key(5)); ok {
		t.Fatal("frozen tombstone did not shadow the run value")
	}
}

// TestCompactionDropsTombstones: after a full compaction the tombstones are
// gone and so are the deleted keys.
func TestCompactionDropsTombstones(t *testing.T) {
	db := Open(Options{MaxRuns: 1})
	for i := 0; i < 20; i++ {
		db.Put(Key(i), []byte("v"))
	}
	db.Flush()
	for i := 0; i < 20; i += 2 {
		db.Delete(Key(i))
	}
	db.Flush() // exceeds MaxRuns -> compaction
	if st := db.Stats(); st.Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	for i := 0; i < 20; i++ {
		_, ok := db.Get(Key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v want %v after compaction", i, ok, want)
		}
	}
	// The surviving run must contain no tombstones.
	for _, e := range (*db.runs.Load())[0].entries {
		if e.tombstone {
			t.Fatalf("tombstone for %q survived full compaction", e.key)
		}
	}
}

func collect(db *DB, start, end []byte) []string {
	var out []string
	db.Scan(start, end, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	})
	return out
}

func TestScanMergedAcrossLayers(t *testing.T) {
	db := Open(Options{})
	// Layer 1 (oldest run): keys 0..9 = "old".
	for i := 0; i < 10; i++ {
		db.Put(Key(i), []byte("old"))
	}
	db.Flush()
	// Layer 2 (newer run): overwrite evens, delete key 1.
	for i := 0; i < 10; i += 2 {
		db.Put(Key(i), []byte("new"))
	}
	db.Delete(Key(1))
	db.Flush()
	// Memtable: overwrite key 3, add key 10.
	db.Put(Key(3), []byte("mem"))
	db.Put(Key(10), []byte("mem"))

	got := collect(db, Key(0), nil)
	want := []string{}
	for i := 0; i <= 10; i++ {
		switch {
		case i == 1: // deleted
		case i == 3:
			want = append(want, string(Key(i))+"=mem")
		case i == 10:
			want = append(want, string(Key(i))+"=mem")
		case i%2 == 0:
			want = append(want, string(Key(i))+"=new")
		default:
			want = append(want, string(Key(i))+"=old")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d entries, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scan[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestScanRangeAndEarlyStop(t *testing.T) {
	db := Open(Options{})
	for i := 0; i < 20; i++ {
		db.Put(Key(i), []byte{byte(i)})
	}
	got := collect(db, Key(5), Key(8))
	if len(got) != 3 {
		t.Fatalf("range scan [5,8) returned %d entries: %v", len(got), got)
	}
	// Early stop after 2 entries.
	n := 0
	db.Scan(Key(0), nil, func(k, v []byte) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d entries, want 2", n)
	}
}

// TestOracleWithDeletesAndScans: random put/delete/get/scan sequences match
// a map oracle, across freezes and compactions.
func TestOracleWithDeletesAndScans(t *testing.T) {
	f := func(ops []uint16) bool {
		db := Open(Options{MemtableBytes: 300, MaxRuns: 2, Seed: 9})
		oracle := map[string]string{}
		for i, op := range ops {
			k := string(Key(int(op % 29)))
			switch op % 4 {
			case 0:
				v := fmt.Sprint(i)
				db.Put([]byte(k), []byte(v))
				oracle[k] = v
			case 1:
				db.Delete([]byte(k))
				delete(oracle, k)
			case 2:
				got, ok := db.Get([]byte(k))
				want, wok := oracle[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			case 3:
				seen := map[string]string{}
				db.Scan(Key(0), nil, func(kk, vv []byte) bool {
					seen[string(kk)] = string(vv)
					return true
				})
				if len(seen) != len(oracle) {
					return false
				}
				for ok2, ov := range oracle {
					if seen[ok2] != ov {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
