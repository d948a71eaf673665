// Package kyoto is a miniature Kyoto-Cabinet-flavored cache database: an
// in-memory hash table with separate chaining and LRU eviction at a record
// capacity. The real Kyoto Cabinet is a popular lock benchmark because its
// CacheDB serializes every operation on one global rwlock; here that lock
// is the sharded store's shard lock (internal/store), and the engine itself
// takes none. It is the repository's native substitute for the paper's
// cross-validation benchmark (DESIGN.md §1).
package kyoto

import "sync/atomic"

// Options configures a CacheDB.
type Options struct {
	// Buckets is the hash bucket count (default 1024).
	Buckets int
	// Capacity bounds the record count; 0 means unbounded. At capacity the
	// least recently used record is evicted.
	Capacity int
}

// record is a chained hash entry that is also an LRU list node.
type record struct {
	key        string
	value      []byte
	hashNext   *record
	lruPrev    *record
	lruNext    *record
	bucketSlot int
}

// CacheDB is the hash-table store. It takes no lock of its own: the caller
// runs every operation exclusively, Get included, because a Get refreshes
// the record's LRU recency. Count alone may run concurrently with anything.
type CacheDB struct {
	opts    Options
	buckets []*record
	count   atomic.Int64
	// LRU list: head = most recent, tail = eviction candidate.
	lruHead, lruTail *record

	// Operation counters.
	gets, sets, removes, evictions uint64
}

// Open creates an empty CacheDB.
func Open(opts Options) *CacheDB {
	if opts.Buckets == 0 {
		opts.Buckets = 1024
	}
	return &CacheDB{opts: opts, buckets: make([]*record, opts.Buckets)}
}

// fnv1a hashes a key.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Set inserts or overwrites a record. value is copied, so the caller may
// reuse its buffer.
func (db *CacheDB) Set(key string, value []byte) {
	db.sets++
	value = append([]byte(nil), value...)
	slot := int(fnv1a(key) % uint64(len(db.buckets)))
	if r := db.findLocked(slot, key); r != nil {
		r.value = value
		db.touchLocked(r)
	} else {
		r := &record{key: key, value: value, bucketSlot: slot, hashNext: db.buckets[slot]}
		db.buckets[slot] = r
		db.count.Add(1)
		db.lruPushFrontLocked(r)
		if db.opts.Capacity > 0 && db.count.Load() > int64(db.opts.Capacity) {
			db.evictLocked()
		}
	}
}

// Get fetches a record and refreshes its recency.
func (db *CacheDB) Get(key string) ([]byte, bool) {
	db.gets++
	slot := int(fnv1a(key) % uint64(len(db.buckets)))
	r := db.findLocked(slot, key)
	if r == nil {
		return nil, false
	}
	db.touchLocked(r)
	return r.value, true
}

// Remove deletes a record; it reports whether the key existed.
func (db *CacheDB) Remove(key string) bool {
	db.removes++
	return db.unlinkLocked(int(fnv1a(key)%uint64(len(db.buckets))), key)
}

// Count returns the record count. The load is atomic, so it is safe from any
// thread; it is a point sample, not a cut consistent with in-flight
// operations (use Stats for that).
func (db *CacheDB) Count() int { return int(db.count.Load()) }

// Stats is a point-in-time snapshot of one CacheDB's operation counters.
type Stats struct {
	// Gets / Sets / Removes count completed operations.
	Gets, Sets, Removes uint64
	// Evictions counts LRU capacity evictions.
	Evictions uint64
	// Count is the live record count at snapshot time.
	Count int
}

// Add accumulates other into s (aggregating per-shard snapshots).
func (s *Stats) Add(other Stats) {
	s.Gets += other.Gets
	s.Sets += other.Sets
	s.Removes += other.Removes
	s.Evictions += other.Evictions
	s.Count += other.Count
}

// Stats returns the CacheDB's counters, a consistent cut.
func (db *CacheDB) Stats() Stats {
	return Stats{
		Gets:      db.gets,
		Sets:      db.sets,
		Removes:   db.removes,
		Evictions: db.evictions,
		Count:     int(db.count.Load()),
	}
}

func (db *CacheDB) findLocked(slot int, key string) *record {
	for r := db.buckets[slot]; r != nil; r = r.hashNext {
		if r.key == key {
			return r
		}
	}
	return nil
}

func (db *CacheDB) unlinkLocked(slot int, key string) bool {
	var prev *record
	for r := db.buckets[slot]; r != nil; prev, r = r, r.hashNext {
		if r.key != key {
			continue
		}
		if prev == nil {
			db.buckets[slot] = r.hashNext
		} else {
			prev.hashNext = r.hashNext
		}
		db.lruUnlinkLocked(r)
		db.count.Add(-1)
		return true
	}
	return false
}

func (db *CacheDB) lruPushFrontLocked(r *record) {
	r.lruPrev = nil
	r.lruNext = db.lruHead
	if db.lruHead != nil {
		db.lruHead.lruPrev = r
	}
	db.lruHead = r
	if db.lruTail == nil {
		db.lruTail = r
	}
}

func (db *CacheDB) lruUnlinkLocked(r *record) {
	if r.lruPrev != nil {
		r.lruPrev.lruNext = r.lruNext
	} else {
		db.lruHead = r.lruNext
	}
	if r.lruNext != nil {
		r.lruNext.lruPrev = r.lruPrev
	} else {
		db.lruTail = r.lruPrev
	}
	r.lruPrev, r.lruNext = nil, nil
}

func (db *CacheDB) touchLocked(r *record) {
	if db.lruHead == r {
		return
	}
	db.lruUnlinkLocked(r)
	db.lruPushFrontLocked(r)
}

func (db *CacheDB) evictLocked() {
	victim := db.lruTail
	if victim == nil {
		return
	}
	db.unlinkLocked(victim.bucketSlot, victim.key)
	db.evictions++
}
