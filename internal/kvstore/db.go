package kvstore

import (
	"bytes"
	"sort"
	"strconv"
	"sync/atomic"
)

// entry is one key/value pair of a sorted run.
type entry struct{ key, value []byte }

// run is an immutable sorted run (the in-memory analog of an SSTable) with
// a filter and an exact hash index (index.go) from key to entry position,
// both holding every key it stores. A run is built complete, filter and
// index filled, before it is published.
type run struct {
	entries []entry
	filter  filter
	index   *index
}

// newRun returns an empty run whose entries, filter and index are sized for
// n entries.
func newRun(n int) *run {
	return &run{entries: make([]entry, 0, n), filter: newFilter(n), index: indexFor(n)}
}

// add appends e, whose key hashes to h and orders after every key in the
// run, to a run being built, and adds it to the filter and the index,
// growing the index past 3/4 load. Writer-only: nothing reads the run until
// it is published.
func (r *run) add(e entry, h uint64) {
	r.filter.add(h)
	r.index = r.index.insert(h, uint32(len(r.entries)))
	r.entries = append(r.entries, e)
}

// find probes the run's index for key, whose hash is h, and returns the
// position of key's entry, false if the run does not hold key. Safe for
// optimistic readers: a published run is immutable.
func (r *run) find(key []byte, h uint64) (int, bool) {
	for p := r.index.probe(h); ; {
		i, ok := p.next()
		if !ok {
			return 0, false
		}
		if bytes.Equal(r.entries[i].key, key) {
			return int(i), true
		}
	}
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
//   - writers (Put, Load, Flush) and Stats run exclusively;
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

	// puts and compactions count writer operations; only writers and Stats
	// touch them, so readers write nothing.
	puts, compactions uint64
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
	db.mem.Store(newSkiplist(opts.Seed, opts.MemtableBytes))
	db.runs.Store(&[]*run{})
	return db
}

// Put inserts or overwrites a key. key and value are copied into the
// memtable's blocks; a Put that does not freeze makes no heap allocation.
func (db *DB) Put(key, value []byte) {
	db.puts++
	mem := db.mem.Load()
	mem.putEntry(key, value)
	if mem.full(db.opts.MemtableBytes) {
		db.freezeLocked()
	}
}

// Get fetches a key: memtable first, then runs newest-to-oldest, the value
// in the newest layer holding key winning. It hashes key once and
// probes every layer with the hash: the memtable's index, then each run's
// filter and, where the filter may hold the key, the run's index. No layer
// searches its key order. Allocation-free, and it writes nothing. The
// returned value aliases the DB's storage and must not be modified.
func (db *DB) Get(key []byte) ([]byte, bool) {
	h := hashKey(key)
	if x := db.mem.Load().lookup(key, h); x != nil {
		return x.val.Load().value, true
	}
	for _, r := range *db.runs.Load() {
		if !r.filter.mayContain(h) {
			continue
		}
		if i, found := r.find(key, h); found {
			return r.entries[i].value, true
		}
	}
	return nil, false
}

// Scan visits every key in [start, end) in key order, merged across the
// memtable and all runs (newest value wins); a nil end is unbounded. fn
// returning false stops the scan. A scan overlapping a writer learns of a
// failed validation only after it completes, so such a caller must buffer
// fn's observations and publish them only once validation succeeds (the
// sharded store's Scan does exactly that).
func (db *DB) Scan(start, end []byte, fn func(key, value []byte) bool) {
	// Sources newest-first: memtable, then runs.
	runs := *db.runs.Load()
	sources := make([][]entry, 0, len(runs)+1)
	sources = append(sources, db.mem.Load().entriesFrom(start, end))
	for _, r := range runs {
		i := sort.Search(len(r.entries), func(i int) bool {
			return bytes.Compare(r.entries[i].key, start) >= 0
		})
		sources = append(sources, r.entries[i:])
	}
	merge(sources, end, func(e entry) bool { return fn(e.key, e.value) })
}

// merge visits the distinct keys below end (nil: unbounded) of sources,
// each sorted and ordered newest first, in key order, passing each key's
// newest entry. fn returning false stops the merge.
func merge(sources [][]entry, end []byte, fn func(e entry) bool) {
	for {
		// Pick the smallest next key; the newest source wins ties.
		best := -1
		for si, src := range sources {
			if len(src) == 0 {
				continue
			}
			if end != nil && bytes.Compare(src[0].key, end) >= 0 {
				sources[si] = nil // past the range
				continue
			}
			if best == -1 || bytes.Compare(src[0].key, sources[best][0].key) < 0 {
				best = si
			}
		}
		if best == -1 {
			return
		}
		e := sources[best][0]
		// Consume this key from every source (older duplicates shadowed).
		for si, src := range sources {
			if len(src) > 0 && bytes.Equal(src[0].key, e.key) {
				sources[si] = src[1:]
			}
		}
		if !fn(e) {
			return
		}
	}
}

// freezeLocked turns the memtable into a run; the caller runs it as a
// writer. The run is built complete, its filter and index from the hashes
// the memtable's nodes store, before it is published. The new run stack is
// published before the memtable pointer is reset, so a reader interleaving
// with the freeze finds every entry in at least one layer (possibly both —
// validation, not the freeze, is what makes its snapshot consistent).
func (db *DB) freezeLocked() {
	if mem := db.mem.Load(); mem.n > 0 {
		db.pushRun(mem.freeze())
	}
}

// pushRun publishes r as the newest run, resets the memtable, and compacts
// once the runs exceed MaxRuns; the caller runs it as a writer. A new
// memtable's skiplist is seeded with Seed plus the run count, so the runs a
// DB holds fix the heights its next memtable draws.
func (db *DB) pushRun(r *run) {
	newRuns := append([]*run{r}, *db.runs.Load()...)
	db.runs.Store(&newRuns)
	db.mem.Store(newSkiplist(db.opts.Seed+uint64(len(newRuns)), db.opts.MemtableBytes))
	if len(newRuns) > db.opts.MaxRuns {
		db.compactLocked()
	}
}

// Load bulk-loads n entries into an empty DB, at(i) returning the i-th
// key and value, the keys strictly ascending. It builds sorted runs
// directly, with no memtable, in two passes over the input. The first
// validates every key and plans the runs: it cuts a run wherever a memtable
// fed the same Puts would freeze and totals each run's key and value bytes.
// Nothing is published until the whole input has passed, so input it
// refuses leaves the DB as it was. The second builds each run in one pass: its entries, filter
// and index sized exactly, its keys and its values copied into one buffer
// each of exactly their size, each key hashed once. It publishes each run
// as a freeze does. The DB it leaves, counters included, is the one those
// Puts followed by Flush leave. at is called twice per index, so it must be
// a pure, random-access function; a result it returns need only stay valid
// until its next call. A writer; it panics on a non-empty DB and on a key
// not above its predecessor.
func (db *DB) Load(n int, at func(i int) (key, value []byte)) {
	if db.mem.Load().n > 0 || len(*db.runs.Load()) > 0 {
		panic("kvstore: Load into a non-empty DB")
	}
	var (
		plan []loadSpan
		sp   loadSpan
		f    fill
		prev []byte // a copy of the last key, also across a cut
	)
	for i := 0; i < n; i++ {
		k, v := at(i)
		if i > 0 && bytes.Compare(k, prev) <= 0 {
			panic("kvstore: Load keys not strictly ascending")
		}
		prev = append(prev[:0], k...)
		sp.keyBytes += len(k)
		sp.valBytes += len(v)
		f.addEntry(k, v)
		if f.full(db.opts.MemtableBytes) || i == n-1 {
			sp.hi = i + 1
			plan = append(plan, sp)
			sp, f = loadSpan{lo: i + 1}, fill{}
		}
	}
	for _, sp := range plan {
		db.pushRun(sp.build(at))
	}
	db.puts += uint64(n)
}

// loadSpan is one run Load plans: the input indexes [lo, hi) and the bytes
// of their keys and of their values.
type loadSpan struct{ lo, hi, keyBytes, valBytes int }

// build returns the run of the span's entries, filter and index filled.
func (sp loadSpan) build(at func(i int) (key, value []byte)) *run {
	r := newRun(sp.hi - sp.lo)
	keys, vals := make([]byte, sp.keyBytes), make([]byte, sp.valBytes)
	for i := sp.lo; i < sp.hi; i++ {
		k, v := at(i)
		r.add(entry{key: carve(&keys, k), value: carve(&vals, v)}, hashKey(k))
	}
	return r
}

// carve copies src to the front of *buf and advances *buf past the copy. It
// returns the copy, nil for an empty src, with its capacity equal to its
// length, as blocks.copy does.
func carve(buf *[]byte, src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	n := copy(*buf, src)
	dst := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return dst
}

// compactLocked merges all runs into one (newest value wins). The merge
// pass also fills the new run's filter, sized for every input entry (a
// bound on the output), and its index, sized for the largest input run and
// grown past 3/4 load, and copies each key and its newest value into the
// new run's own blocks: a value left in its memtable's block would keep the
// whole block, dead overwritten values and all, alive for good.
func (db *DB) compactLocked() {
	db.compactions++
	runs := *db.runs.Load()
	sources := make([][]entry, len(runs))
	total, largest := 0, 0
	for i, r := range runs {
		sources[i] = r.entries
		total += len(r.entries)
		largest = max(largest, len(r.entries))
	}
	out := &run{entries: make([]entry, 0, largest), filter: newFilter(total), index: indexFor(largest)}
	var keys, vals blocks[byte]
	merge(sources, nil, func(e entry) bool {
		out.add(entry{key: keys.copy(e.key), value: vals.copy(e.value)}, hashKey(e.key))
		return true
	})
	db.runs.Store(&[]*run{out})
}

// Flush freezes the current memtable into the newest run; it does nothing to
// an empty memtable.
func (db *DB) Flush() { db.freezeLocked() }

// Stats is a point-in-time snapshot of one DB's writer counters.
type Stats struct {
	// Puts counts the keys written, by Put or Load.
	Puts uint64
	// Compactions counts full-merge compactions.
	Compactions uint64
	// Runs is the number of immutable runs at snapshot time.
	Runs int
}

// Add accumulates other into s (aggregating per-shard snapshots).
func (s *Stats) Add(other Stats) {
	s.Puts += other.Puts
	s.Compactions += other.Compactions
	s.Runs += other.Runs
}

// Stats returns the DB's counters; the caller runs it as a writer.
func (db *DB) Stats() Stats {
	return Stats{Puts: db.puts, Compactions: db.compactions, Runs: len(*db.runs.Load())}
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

// IncKey advances key, the canonical key Key(i) of an i below 10^16 − 1, to
// Key(i+1) in place: a decimal increment with carry, where AppendKey divides
// once per digit. It panics on 10^16 − 1, whose successor is wider than
// KeyWidth.
func IncKey(key []byte) {
	for b := len(key) - 1; b >= 0; b-- {
		if key[b] != '9' {
			key[b]++
			return
		}
		key[b] = '0'
	}
	panic("kvstore: IncKey past the widest canonical key")
}
