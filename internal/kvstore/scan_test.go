package kvstore

import (
	"fmt"
	"testing"
	"testing/quick"
)

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
	// Layer 2 (newer run): overwrite evens.
	for i := 0; i < 10; i += 2 {
		db.Put(Key(i), []byte("new"))
	}
	db.Flush()
	// Memtable: overwrite key 3, add key 10.
	db.Put(Key(3), []byte("mem"))
	db.Put(Key(10), []byte("mem"))

	got := collect(db, Key(0), nil)
	want := []string{}
	for i := 0; i <= 10; i++ {
		switch {
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
	// The memtable copies only the bounded range, not everything from start.
	if es := db.mem.Load().entriesFrom(Key(5), Key(8)); len(es) != 3 {
		t.Fatalf("memtable range [5,8) copied %d entries, want 3", len(es))
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

// TestOracleWithScans: random put/get/scan sequences match a map oracle,
// across freezes and compactions.
func TestOracleWithScans(t *testing.T) {
	f := func(ops []uint16) bool {
		db := Open(Options{MemtableBytes: 300, MaxRuns: 2, Seed: 9})
		oracle := map[string]string{}
		for i, op := range ops {
			k := string(Key(int(op % 29)))
			switch op % 3 {
			case 0:
				v := fmt.Sprint(i)
				db.Put([]byte(k), []byte(v))
				oracle[k] = v
			case 1:
				got, ok := db.Get([]byte(k))
				want, wok := oracle[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			case 2:
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
