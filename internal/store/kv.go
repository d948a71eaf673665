package store

import (
	"bytes"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
)

// This file runs kvstore.DB behind the shard router. Reads (Get, Scan) are
// optimistic when the shard lock offers a seqlock read path (the catalog's
// seq: family): they run kvstore's Get/Scan with no lock held, bracketed by
// ReadSeq/ReadValidate, retry on version bump, and fall back to the
// pessimistic shard lock after the shard's adaptive attempt budget is
// exhausted (DESIGN.md S33). Without a seqlock they are shared-mode when the
// shard lock allows it — the LSM's read paths mutate nothing but its atomic
// counters. Put/Delete/Flush always take the exclusive path.
//
// The optimistic Get fast path is hand-rolled rather than routed through
// Session.OptimisticAt: keeping the hot loop closure-free is what pins it at
// zero heap allocations (TestNoTraceZeroAllocs); the generic closure-based
// path would cost an allocation per read.

// KVOptions configures a sharded LSM store.
type KVOptions struct {
	// Shards is the shard count (default 1).
	Shards int
	// RangeKeys, when > 0, selects range partitioning with uniform bounds
	// over the canonical kvstore.Key space [0, RangeKeys); 0 selects hash
	// partitioning.
	RangeKeys int
	// NewLock supplies shard i's lock (nil function or result: lockapi.Noop).
	// Shard locks implementing lockapi.RWLocker serve reads in shared mode.
	NewLock func(shard int) lockapi.Lock
	// Shard is the per-shard engine configuration.
	Shard kvstore.Options
}

// KV is the sharded LSM store.
type KV struct {
	router *Router[*kvstore.DB]
}

// OpenKV builds the shards. Single-shard behavior is bit-identical to the
// engine driven under the same lock: one lock brackets the same operations
// in the same order.
func OpenKV(opts KVOptions) *KV {
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	return &KV{router: NewRouter(NewPartitioner(opts.Shards, opts.RangeKeys), opts.NewLock,
		func(i int) *kvstore.DB {
			so := opts.Shard
			so.Seed += uint64(i) // decorrelate shard skiplists
			return kvstore.Open(so)
		})}
}

// Shards returns the shard count.
func (kv *KV) Shards() int { return kv.router.Shards() }

// OCCStats returns the per-shard optimistic-read counters (index = shard).
func (kv *KV) OCCStats() []OCCShardStats { return kv.router.OCCStats() }

// KVSession is a per-worker handle carrying the router's lock contexts.
// Create only during single-threaded setup.
type KVSession struct {
	s *Session[*kvstore.DB]
}

// NewSession allocates a worker session.
func (kv *KV) NewSession() *KVSession { return &KVSession{s: kv.router.NewSession()} }

// Put inserts or overwrites a key on its shard.
func (s *KVSession) Put(p lockapi.Proc, key, value []byte) {
	s.s.Exclusive(p, key, func(_ int, db *kvstore.DB) { db.Put(key, value) })
}

// Get fetches a key from its shard: optimistically when the shard lock is a
// lockapi.SeqReader (validated unlocked read, adaptive retry, pessimistic
// fallback), in shared mode otherwise. The optimistic path performs zero
// heap allocations.
func (s *KVSession) Get(p lockapi.Proc, key []byte) (v []byte, ok bool) {
	r := s.s.r
	i := r.part.Shard(key)
	if sq := r.seqs[i]; sq != nil {
		st := &r.occ[i]
		db := r.shards[i]
		k := int(st.k.Load())
		for a := 0; a < k; a++ {
			st.optimistic.Add(1)
			seq := sq.ReadSeq(p)
			v, ok = db.Get(key)
			if sq.ReadValidate(p, seq) {
				st.noteSuccess(a)
				return v, ok
			}
			st.vfails.Add(1)
		}
		st.noteFallback()
		v, ok = nil, false // discard the torn attempt before the locked read
	}
	s.s.SharedAt(p, i, func(_ int, db *kvstore.DB) { v, ok = db.Get(key) })
	return v, ok
}

// Delete writes a tombstone on the key's shard. A key always routes to one
// shard, so its tombstone shadows its older values there; no cross-shard
// shadowing can arise.
func (s *KVSession) Delete(p lockapi.Proc, key []byte) {
	s.s.Exclusive(p, key, func(_ int, db *kvstore.DB) { db.Delete(key) })
}

// Flush freezes every shard's memtable (ascending, one shard at a time).
func (s *KVSession) Flush(p lockapi.Proc) {
	s.s.Ascending(p, 0, false, func(_ int, db *kvstore.DB) bool {
		db.Flush()
		return true
	})
}

// kvPair is one collected scan result (keys/values copied out of the
// engine so a later emission outlives any concurrent compaction).
type kvPair struct{ k, v []byte }

// scanShard collects shard i's live [start, end) range into buf (reset
// first). With a seqlock shard lock the collection runs unlocked and is
// validated — a failed validation discards the buffer and retries, then
// falls back to the shared lock, so torn observations never escape this
// function. Without one it is the plain shared-mode collect.
func (s *KVSession) scanShard(p lockapi.Proc, i int, start, end []byte, buf []kvPair) []kvPair {
	r := s.s.r
	collect := func(k, v []byte) bool {
		buf = append(buf, kvPair{k: append([]byte(nil), k...), v: append([]byte(nil), v...)})
		return true
	}
	if sq := r.seqs[i]; sq != nil {
		st := &r.occ[i]
		db := r.shards[i]
		kbudget := int(st.k.Load())
		for a := 0; a < kbudget; a++ {
			st.optimistic.Add(1)
			buf = buf[:0]
			seq := sq.ReadSeq(p)
			db.Scan(start, end, collect)
			if sq.ReadValidate(p, seq) {
				st.noteSuccess(a)
				return buf
			}
			st.vfails.Add(1)
		}
		st.noteFallback()
	}
	buf = buf[:0]
	s.s.SharedAt(p, i, func(_ int, db *kvstore.DB) { db.Scan(start, end, collect) })
	return buf
}

// Scan visits every live key in [start, end) in ascending key order, merged
// across shards; fn returning false stops the scan. Under a range partition
// the scan proceeds shard by shard in key order; under hash partitioning it
// collects each shard's range and k-way merges. Seqlock-guarded shards are
// collected optimistically (validate, retry, fall back — scanShard) and
// emitted to fn only after validation, with no lock held; other shards hold
// their lock at most one at a time (shared-mode when available, streaming
// in the ordered case). Either way the result interleaves per-shard
// snapshots taken at slightly different instants, not one atomic cut —
// each shard's contribution is internally consistent.
func (s *KVSession) Scan(p lockapi.Proc, start, end []byte, fn func(key, value []byte) bool) {
	r := s.s.r
	if r.Ordered() {
		from := r.rinfo.FirstShard(start)
		var buf []kvPair
		for i := from; i < r.Shards(); i++ {
			if r.seqs[i] == nil {
				// Pessimistic shard: stream under the shared lock (early
				// stop needs no buffering here).
				cont := true
				s.s.SharedAt(p, i, func(_ int, db *kvstore.DB) {
					db.Scan(start, end, func(k, v []byte) bool {
						cont = fn(k, v)
						return cont
					})
				})
				if !cont {
					return
				}
				continue
			}
			buf = s.scanShard(p, i, start, end, buf)
			for _, pr := range buf {
				if !fn(pr.k, pr.v) {
					return
				}
			}
		}
		return
	}
	// Hash partition: per-shard collect, then merge. Shards hold disjoint
	// key sets, so the merge never sees duplicates, and the per-shard
	// collection has already applied tombstones.
	parts := make([][]kvPair, 0, r.Shards())
	for i := 0; i < r.Shards(); i++ {
		if part := s.scanShard(p, i, start, end, nil); len(part) > 0 {
			parts = append(parts, part)
		}
	}
	for {
		best := -1
		for i := range parts {
			if len(parts[i]) == 0 {
				continue
			}
			if best == -1 || bytes.Compare(parts[i][0].k, parts[best][0].k) < 0 {
				best = i
			}
		}
		if best == -1 {
			return
		}
		pair := parts[best][0]
		parts[best] = parts[best][1:]
		if !fn(pair.k, pair.v) {
			return
		}
	}
}

// StatsSnapshot aggregates every shard's counters (ascending shard order,
// one consistent per-shard cut at a time).
func (s *KVSession) StatsSnapshot(p lockapi.Proc) kvstore.Stats {
	var total kvstore.Stats
	for _, st := range s.ShardStats(p) {
		total.Add(st)
	}
	return total
}

// ShardStats returns one consistent counter snapshot per shard — the
// shard-resolved view the serving experiments report.
func (s *KVSession) ShardStats(p lockapi.Proc) []kvstore.Stats {
	out := make([]kvstore.Stats, s.s.r.Shards())
	s.s.Ascending(p, 0, false, func(i int, db *kvstore.DB) bool {
		out[i] = db.Stats()
		return true
	})
	return out
}

// PreloadKV fills the store with keys sequential canonical keys of
// db_bench's 100-byte value size and flushes (single-threaded).
func PreloadKV(kv *KV, keys int) {
	p := lockapi.NewNativeProc(0)
	s := kv.NewSession()
	val := make([]byte, 100)
	for i := 0; i < keys; i++ {
		s.Put(p, kvstore.Key(i), val)
	}
	s.Flush(p)
}
