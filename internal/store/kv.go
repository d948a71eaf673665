package store

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
)

// This file runs kvstore.DB behind the shard router. Reads (Get, Scan) go
// through Session.OptimisticAt, the same loop the simulated serving driver
// runs: when the shard lock offers a seqlock read path (the catalog's seq:
// family) they run kvstore's Get/Scan with no lock held, bracketed by
// ReadSeq/ReadValidate, retry on version bump, and fall back to the
// pessimistic shard lock once 8 attempts have failed (DESIGN.md S33). Without a seqlock they are shared-mode when the
// shard lock allows it — the LSM's read paths write nothing. Put and Flush
// always take the exclusive path.

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

// OCCStats returns the per-shard optimistic-read counters (index = shard),
// summed over every session; call it only when no session is running.
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
// lockapi.SeqReader (validated unlocked read, up to 8 attempts, pessimistic
// fallback), in shared mode otherwise. Every attempt overwrites v and ok, so
// an attempt that validation discards cannot leak. Get performs zero heap
// allocations.
func (s *KVSession) Get(p lockapi.Proc, key []byte) (v []byte, ok bool) {
	s.s.OptimisticAt(p, s.s.r.part.Shard(key), func(_ int, db *kvstore.DB) { v, ok = db.Get(key) })
	return v, ok
}

// Flush freezes every shard's memtable (ascending, one shard at a time).
func (s *KVSession) Flush(p lockapi.Proc) {
	s.s.Each(p, func(_ int, db *kvstore.DB) { db.Flush() })
}

// kvPair is one collected scan result (keys/values copied out of the
// engine so a later emission outlives any concurrent compaction).
type kvPair struct{ k, v []byte }

// scanShard collects shard i's [start, end) range into buf through
// Session.OptimisticAt. Each attempt resets buf before collecting, so the
// attempt that served the read is all that is returned: torn observations
// never escape this function.
func (s *KVSession) scanShard(p lockapi.Proc, i int, start, end []byte, buf []kvPair) []kvPair {
	s.s.OptimisticAt(p, i, func(_ int, db *kvstore.DB) {
		buf = buf[:0]
		db.Scan(start, end, func(k, v []byte) bool {
			buf = append(buf, kvPair{k: append([]byte(nil), k...), v: append([]byte(nil), v...)})
			return true
		})
	})
	return buf
}

// Scan visits every key in [start, end) in ascending key order, merged
// across shards; fn returning false stops the scan. Under a range partition
// the scan proceeds shard by shard in key order over the shards the range
// covers (Router.Span); under hash partitioning it collects each shard's
// range and k-way merges. Seqlock-guarded shards are collected
// optimistically (validate, retry, fall back — scanShard) and emitted to fn
// only after validation, with no lock held; other shards hold their lock at
// most one at a time (shared-mode when available, streaming in the ordered
// case). Either way the result interleaves per-shard snapshots taken at
// slightly different instants, not one atomic cut — each shard's
// contribution is internally consistent.
func (s *KVSession) Scan(p lockapi.Proc, start, end []byte, fn func(key, value []byte) bool) {
	r := s.s.r
	first, last := r.Span(start, end)
	if r.Ordered() {
		var buf []kvPair
		for i := first; i <= last; i++ {
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
	// key sets, so the merge never sees duplicates.
	parts := make([][]kvPair, 0, r.Shards())
	for i := first; i <= last; i++ {
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

// ShardStats returns one consistent counter snapshot per shard — the
// shard-resolved view the serving experiments report.
func (s *KVSession) ShardStats(p lockapi.Proc) []kvstore.Stats {
	out := make([]kvstore.Stats, s.s.r.Shards())
	s.s.Each(p, func(i int, db *kvstore.DB) { out[i] = db.Stats() })
	return out
}

// PreloadKV fills an empty store with keys sequential canonical keys of
// db_bench's 100-byte value size and flushes, on min(GOMAXPROCS, shards)
// workers. Each worker formats one contiguous range of the keys, advancing
// each key from the last in place (kvstore.IncKey), and routes it into its
// own per-shard list. Once every range is routed, the workers claim shards
// one at a time and bulk-load each under its lock (kvstore.DB.Load), reading
// the shard's lists in range order, so its keys arrive ascending. No shard
// lock is taken by two workers, and every filter, index and copy is built
// before PreloadKV returns. The store it leaves is the one per-key Puts
// followed by Flush leave, with no memtable built on the way. Every key is
// kvstore.KeyWidth bytes: a store of 10^16 keys does not fit in memory.
func PreloadKV(kv *KV, keys int) {
	r := kv.router
	shards := r.Shards()
	workers := min(runtime.GOMAXPROCS(0), shards)
	// One session serves every worker: shard i's context is used only by
	// the worker that claims shard i. It is made before any worker starts,
	// because NewCtx registers the context with its lock.
	s := r.NewSession()
	// lists[w][i] holds, back to back, the keys of worker w's range that
	// route to shard i.
	lists := make([][][]byte, workers)
	parallel(workers, func(w int) {
		lo, hi := w*keys/workers, (w+1)*keys/workers
		ls := make([][]byte, shards)
		for i := range ls {
			ls[i] = make([]byte, 0, ((hi-lo)/shards+1)*kvstore.KeyWidth)
		}
		var buf [kvstore.KeyWidth]byte
		k := kvstore.AppendKey(buf[:0], lo)
		for i := lo; i < hi; i++ {
			if i > lo {
				kvstore.IncKey(k)
			}
			sh := r.part.Shard(k)
			ls[sh] = append(ls[sh], k...)
		}
		lists[w] = ls
	})
	val := make([]byte, 100)
	var next atomic.Int32
	parallel(workers, func(int) {
		p := lockapi.NewNativeProc(0)
		for i := int(next.Add(1)) - 1; i < shards; i = int(next.Add(1)) - 1 {
			segs := make([][]byte, workers) // shard i's lists, in range order
			n := 0
			for w, ls := range lists {
				segs[w] = ls[i]
				n += len(ls[i]) / kvstore.KeyWidth
			}
			s.ExclusiveAt(p, i, func(_ int, db *kvstore.DB) {
				db.Load(n, func(j int) ([]byte, []byte) {
					seg, off := 0, j*kvstore.KeyWidth
					for len(segs[seg]) <= off {
						off -= len(segs[seg])
						seg++
					}
					return segs[seg][off : off+kvstore.KeyWidth], val
				})
			})
		}
	})
}

// parallel runs fn(0), …, fn(n−1) on n goroutines and waits for them all.
func parallel(n int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}
