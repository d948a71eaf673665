package kvstore

import (
	"bytes"
	"sort"
	"strconv"
	"sync/atomic"
)

// entry is one key/value pair of a sorted run. A tombstone marks a deletion
// that must shadow older runs until a full compaction drops it.
type entry struct {
	key, value []byte
	tombstone  bool
}

// run is an immutable sorted run (the in-memory analog of an SSTable).
type run struct {
	entries []entry
}

// get binary-searches the run; found distinguishes "present" (possibly as a
// tombstone) from "not in this run".
func (r *run) get(key []byte) (e entry, found bool) {
	i := sort.Search(len(r.entries), func(i int) bool {
		return bytes.Compare(r.entries[i].key, key) >= 0
	})
	if i < len(r.entries) && bytes.Equal(r.entries[i].key, key) {
		return r.entries[i], true
	}
	return entry{}, false
}

// Options configures a DB.
type Options struct {
	// MemtableBytes is the freeze threshold (default 1 MiB).
	MemtableBytes int
	// MaxRuns triggers a full-merge compaction when exceeded (default 8).
	MaxRuns int
	// Seed seeds the skiplist height generator.
	Seed uint64
}

// DB is a small LSM key-value store: one mutable skiplist memtable plus a
// stack of immutable sorted runs, merged when MaxRuns is exceeded. It takes
// no lock of its own; the caller serializes it (the sharded store's shard
// lock, internal/store):
//
//   - writers (Put, Delete, Flush) and Stats run exclusively;
//   - Get and Scan may overlap each other;
//   - Get and Scan may overlap a writer only under seqlock validation: the
//     caller brackets them in ReadSeq/ReadValidate and discards a result
//     whose validation fails (the package comment explains why).
type DB struct {
	opts Options

	// mem and runs are the reader-visible layer pointers, atomically
	// published so a reader overlapping a writer sees a sound (if possibly
	// mixed) layer set. Only freezeLocked/compactLocked swap them; runs is
	// published before mem is reset so no entry is ever absent from both
	// layers at once.
	mem  atomic.Pointer[skiplist]
	runs atomic.Pointer[[]*run] // newest first

	// Operation counters. Atomic so that overlapping readers do not race
	// each other on them.
	gets, puts, deletes, scans, compactions atomic.Uint64
}

// Open creates an empty DB.
func Open(opts Options) *DB {
	if opts.MemtableBytes == 0 {
		opts.MemtableBytes = 1 << 20
	}
	if opts.MaxRuns == 0 {
		opts.MaxRuns = 8
	}
	db := &DB{opts: opts}
	db.mem.Store(newSkiplist(opts.Seed))
	db.runs.Store(&[]*run{})
	return db
}

// Put inserts or overwrites a key. key and value are copied.
func (db *DB) Put(key, value []byte) {
	db.puts.Add(1)
	mem := db.mem.Load()
	mem.putEntry(entry{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
	if mem.bytes >= db.opts.MemtableBytes {
		db.freezeLocked()
	}
}

// Get fetches a key: memtable first, then runs newest-to-oldest, a
// tombstone in a newer layer shadowing older values. Allocation-free. The
// returned value aliases the DB's storage and must not be modified.
func (db *DB) Get(key []byte) ([]byte, bool) {
	db.gets.Add(1)
	if e, found := db.mem.Load().get(key); found {
		return e.value, !e.tombstone
	}
	for _, r := range *db.runs.Load() {
		if e, found := r.get(key); found {
			return e.value, !e.tombstone
		}
	}
	return nil, false
}

// Delete removes a key by writing a tombstone (LSM deletion): the key
// disappears from reads immediately and from storage at the next full
// compaction.
func (db *DB) Delete(key []byte) {
	db.deletes.Add(1)
	mem := db.mem.Load()
	mem.putEntry(entry{key: append([]byte(nil), key...), tombstone: true})
	if mem.bytes >= db.opts.MemtableBytes {
		db.freezeLocked()
	}
}

// Scan visits every live key in [start, end) in key order, merged across
// the memtable and all runs (newest value wins, tombstones skip); a nil end
// is unbounded. fn returning false stops the scan. A scan overlapping a
// writer learns of a failed validation only after it completes, so such a
// caller must buffer fn's observations and publish them only once
// validation succeeds (the sharded store's Scan does exactly that).
func (db *DB) Scan(start, end []byte, fn func(key, value []byte) bool) {
	db.scans.Add(1)
	// Sources newest-first: memtable, then runs.
	runs := *db.runs.Load()
	sources := make([][]entry, 0, len(runs)+1)
	sources = append(sources, db.mem.Load().entriesFrom(start))
	for _, r := range runs {
		i := sort.Search(len(r.entries), func(i int) bool {
			return bytes.Compare(r.entries[i].key, start) >= 0
		})
		sources = append(sources, r.entries[i:])
	}
	pos := make([]int, len(sources))
	for {
		// Pick the smallest next key; the newest source wins ties.
		best := -1
		for si := range sources {
			if pos[si] >= len(sources[si]) {
				continue
			}
			k := sources[si][pos[si]].key
			if end != nil && bytes.Compare(k, end) >= 0 {
				pos[si] = len(sources[si]) // past the range
				continue
			}
			if best == -1 || bytes.Compare(k, sources[best][pos[best]].key) < 0 {
				best = si
			}
		}
		if best == -1 {
			break
		}
		e := sources[best][pos[best]]
		// Consume this key from every source (older duplicates shadowed).
		for si := range sources {
			if pos[si] < len(sources[si]) && bytes.Equal(sources[si][pos[si]].key, e.key) {
				pos[si]++
			}
		}
		if e.tombstone {
			continue
		}
		if !fn(e.key, e.value) {
			break
		}
	}
}

// freezeLocked turns the memtable into a run; the caller runs it as a
// writer. The new run stack is published before the memtable pointer is
// reset, so a reader interleaving with the freeze finds every entry in at
// least one layer (possibly both — validation, not the freeze, is what
// makes its snapshot consistent).
func (db *DB) freezeLocked() {
	mem := db.mem.Load()
	if mem.n == 0 {
		return
	}
	newRuns := append([]*run{{entries: mem.entries()}}, *db.runs.Load()...)
	db.runs.Store(&newRuns)
	db.mem.Store(newSkiplist(db.opts.Seed + uint64(len(newRuns))))
	if len(newRuns) > db.opts.MaxRuns {
		db.compactLocked()
	}
}

// compactLocked merges all runs into one (newest value wins) and drops
// tombstones — a full compaction, so shadowed deletions are safe to forget.
func (db *DB) compactLocked() {
	db.compactions.Add(1)
	runs := *db.runs.Load()
	merged := make(map[string]entry)
	for i := len(runs) - 1; i >= 0; i-- { // oldest first; newer overwrite
		for _, e := range runs[i].entries {
			merged[string(e.key)] = e
		}
	}
	entries := make([]entry, 0, len(merged))
	for _, e := range merged {
		if e.tombstone {
			continue
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].key, entries[j].key) < 0
	})
	db.runs.Store(&[]*run{{entries: entries}})
}

// Flush freezes the current memtable (for tests and bulk loads).
func (db *DB) Flush() { db.freezeLocked() }

// Stats is a point-in-time snapshot of one DB's operation counters.
type Stats struct {
	// Gets / Puts / Deletes / Scans count completed operations.
	Gets, Puts, Deletes, Scans uint64
	// Compactions counts full-merge compactions.
	Compactions uint64
	// Runs is the number of immutable runs at snapshot time.
	Runs int
}

// Add accumulates other into s (aggregating per-shard snapshots).
func (s *Stats) Add(other Stats) {
	s.Gets += other.Gets
	s.Puts += other.Puts
	s.Deletes += other.Deletes
	s.Scans += other.Scans
	s.Compactions += other.Compactions
	s.Runs += other.Runs
}

// Stats returns the DB's counters. Run exclusively, it is a consistent cut.
func (db *DB) Stats() Stats {
	return Stats{
		Gets:        db.gets.Load(),
		Puts:        db.puts.Load(),
		Deletes:     db.deletes.Load(),
		Scans:       db.scans.Load(),
		Compactions: db.compactions.Load(),
		Runs:        len(*db.runs.Load()),
	}
}

// KeyWidth is the canonical benchmark key width (LevelDB db_bench's 16-digit
// zero-padded decimal key space).
const KeyWidth = 16

// Key formats the canonical fixed-width benchmark key, like LevelDB's
// db_bench key space. It performs exactly one allocation (the returned
// slice); use AppendKey to amortize even that away on hot paths.
func Key(i int) []byte {
	return AppendKey(make([]byte, 0, KeyWidth), i)
}

// AppendKey appends the canonical fixed-width key for i to dst and returns
// the extended slice. It is allocation-free when dst has capacity — this
// encoder runs on every operation of every KV workload, where
// fmt.Sprintf("%016d", i) dominated the profile. Negative i panics (the
// benchmark key space is non-negative).
func AppendKey(dst []byte, i int) []byte {
	if i < 0 {
		panic("kvstore: negative benchmark key")
	}
	if i >= 1e16 {
		// Wider than the fixed field: widen like %016d would.
		return strconv.AppendInt(dst, int64(i), 10)
	}
	var buf [KeyWidth]byte
	for b := KeyWidth - 1; b >= 0; b-- {
		buf[b] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, buf[:]...)
}
