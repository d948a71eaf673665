// Package store is the sharded serving layer (DESIGN.md S32): a generic
// shard router that partitions a keyspace across N shards, each guarded by
// its own pluggable lockapi.Lock — any catalog entry, including the
// reader-writer lock (shared-mode reads via lockapi.RWLocker) and the cr:/
// clof: compositions. The repository's two store engines run behind it:
// kvstore.DB (the LSM, kv.go) and kyoto.CacheDB (the LRU cache, cache.go).
//
// Sharding is the classic serving-system answer to the global-lock collapse
// the paper measures: instead of making the one lock NUMA-aware, split the
// keyspace so most operations contend only within a shard. The two answers
// compose — each shard's lock can itself be a CLoF composition — and the kv
// experiment (internal/figures) sweeps exactly that product: shards × lock
// family × workload shape.
//
// Locking discipline: the router owns all locking. The engines take no lock
// of their own; every operation runs bracketed by the owning shard's lock,
// exclusively or — when the shard lock implements lockapi.RWLocker and the
// operation is read-only — in shared mode. Single-shard configurations
// therefore behave bit-identically to the engine driven under the same
// lock: the lock brackets the same operations in the same order.
//
// Multi-shard operations (cross-shard scans, stats aggregation) visit shards
// in ascending index order and hold at most one shard lock at a time, so
// they cannot deadlock against each other; the price is that a cross-shard
// result is a sequence of per-shard snapshots, not one atomic cut (each
// shard is internally consistent; concurrent writers may land between shard
// visits).
package store

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
)

// Partitioner maps keys to shard indices. Implementations must be pure
// (same key, same shard — routing happens on every operation, unlocked).
type Partitioner interface {
	// Shards returns the shard count N; Shard returns values in [0, N).
	Shards() int
	// Shard routes a key.
	Shard(key []byte) int
}

// RangeInfo is implemented by partitioners whose shards cover contiguous,
// ascending key ranges; cross-shard scans use it to stream shards in key
// order instead of collect-and-merge.
type RangeInfo interface {
	// FirstShard returns the shard containing key (the routing shard), which
	// under a range partition is also the first shard a scan from key visits.
	FirstShard(key []byte) int
}

// HashPartitioner routes by FNV-1a hash modulo the shard count: keys
// interleave across shards, so uniform workloads spread evenly regardless of
// key locality, and range scans must merge all shards.
type HashPartitioner struct {
	n int
}

// NewHashPartitioner returns a hash partitioner over n shards (n >= 1).
func NewHashPartitioner(n int) HashPartitioner {
	if n < 1 {
		panic("store: partitioner needs at least one shard")
	}
	return HashPartitioner{n: n}
}

// Shards implements Partitioner.
func (h HashPartitioner) Shards() int { return h.n }

// Shard implements Partitioner (FNV-1a, the same hash kyoto buckets with).
func (h HashPartitioner) Shard(key []byte) int {
	sum := uint64(14695981039346656037)
	for _, b := range key {
		sum ^= uint64(b)
		sum *= 1099511628211
	}
	return int(sum % uint64(h.n))
}

// RangePartitioner routes by explicit split points: shard i covers
// [bounds[i-1], bounds[i]) with the first shard open below and the last open
// above. Contiguous key ranges stay on one shard, so range scans stream
// shard by shard — and skewed key ranges produce hot shards, the trade-off
// the kv experiment's hotspot workload measures.
type RangePartitioner struct {
	// bounds are the n-1 ascending split keys.
	bounds [][]byte
}

// NewRangePartitioner builds a range partitioner from ascending split
// points; len(bounds)+1 is the shard count. It rejects unsorted or
// duplicate bounds.
func NewRangePartitioner(bounds [][]byte) (RangePartitioner, error) {
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			return RangePartitioner{}, fmt.Errorf("store: range bounds not strictly ascending at %d", i)
		}
	}
	return RangePartitioner{bounds: bounds}, nil
}

// Shards implements Partitioner.
func (r RangePartitioner) Shards() int { return len(r.bounds) + 1 }

// Shard implements Partitioner: binary search for the first bound above key.
func (r RangePartitioner) Shard(key []byte) int {
	return sort.Search(len(r.bounds), func(i int) bool {
		return bytes.Compare(key, r.bounds[i]) < 0
	})
}

// FirstShard implements RangeInfo.
func (r RangePartitioner) FirstShard(key []byte) int { return r.Shard(key) }

// UniformBounds returns split points dividing the canonical kvstore.Key
// space [0, keys) into shards equal ranges — the natural range partition
// for the benchmark keyspace (a linear byte-space split would be useless:
// canonical keys share long "0" prefixes).
func UniformBounds(keys, shards int, keyOf func(i int) []byte) [][]byte {
	if shards < 1 {
		panic("store: UniformBounds needs at least one shard")
	}
	bounds := make([][]byte, 0, shards-1)
	for i := 1; i < shards; i++ {
		bounds = append(bounds, keyOf(i*keys/shards))
	}
	return bounds
}

// NewPartitioner returns the store's routing for shards shards: a range
// partition with UniformBounds over the canonical kvstore.Key space
// [0, rangeKeys) when rangeKeys > 0, the FNV-1a hash partition otherwise.
// OpenKV and the simulated serving driver (internal/workload) both route
// through it.
func NewPartitioner(shards, rangeKeys int) Partitioner {
	if rangeKeys <= 0 {
		return NewHashPartitioner(shards)
	}
	rp, err := NewRangePartitioner(UniformBounds(rangeKeys, shards, kvstore.Key))
	if err != nil {
		panic(err) // unreachable: UniformBounds emits ascending keys
	}
	return rp
}

// Adaptive optimistic-read bounds (DESIGN.md S33): each shard starts with
// occKStart validation attempts per read, halves on every pessimistic
// fallback, and earns one attempt back after occGrowAfter consecutive
// first-try successes — so write-hot shards degrade to (cheap) pessimistic
// reads quickly while read-mostly shards keep the full optimistic budget.
const (
	occKStart    = 4
	occKMin      = 1
	occKMax      = 8
	occGrowAfter = 64
)

// occShard is one shard's optimistic-read state: the adaptive attempt
// budget plus the counters the obs layer attributes per shard. All fields
// are atomics — the fast path must stay allocation- and lock-free, and the
// budget adaptation is an intentionally racy heuristic (a lost update costs
// one adjustment, never correctness).
type occShard struct {
	k          atomic.Int32  // current attempt budget, in [occKMin, occKMax]
	clean      atomic.Uint32 // consecutive first-attempt successes
	optimistic atomic.Uint64 // optimistic attempts started
	vfails     atomic.Uint64 // failed validations (retries)
	fallbacks  atomic.Uint64 // reads that fell back to the shard lock
}

// noteSuccess records a validated read that took `attempt` retries before
// succeeding, growing the budget after a clean streak.
func (st *occShard) noteSuccess(attempt int) {
	if attempt != 0 {
		st.clean.Store(0)
		return
	}
	if st.clean.Add(1) >= occGrowAfter {
		st.clean.Store(0)
		if k := st.k.Load(); k < occKMax {
			st.k.Store(k + 1)
		}
	}
}

// noteFallback records an exhausted optimistic budget and halves it.
func (st *occShard) noteFallback() {
	st.fallbacks.Add(1)
	st.clean.Store(0)
	if nk := st.k.Load() / 2; nk >= occKMin {
		st.k.Store(nk)
	} else {
		st.k.Store(occKMin)
	}
}

// OCCShardStats is one shard's optimistic-read accounting, as exposed to
// the obs layer and the kv experiment (retry/validation-failure metrics per
// shard).
type OCCShardStats struct {
	// Optimistic counts optimistic read attempts (including retries).
	Optimistic uint64
	// ValidationFailures counts attempts whose validation failed.
	ValidationFailures uint64
	// Fallbacks counts reads that exhausted the budget and took the lock.
	Fallbacks uint64
	// K is the shard's current adaptive attempt budget.
	K int
}

// Router partitions a keyspace across shards of payload type S, guarding
// shard i with its own lock. It is the generic core both store engines wrap.
type Router[S any] struct {
	part   Partitioner
	rinfo  RangeInfo // non-nil when part orders shards by key range
	locks  []lockapi.Lock
	rws    []lockapi.RWLocker  // non-nil where locks[i] supports shared mode
	seqs   []lockapi.SeqReader // non-nil where locks[i] supports optimistic reads
	occ    []occShard
	shards []S
}

// NewRouter builds a router: newLock(i) supplies shard i's lock (nil — the
// function or its result — defaults to lockapi.Noop), newShard(i) its
// payload. Lock construction happens here so a fresh router always owns
// fresh, unheld locks.
func NewRouter[S any](part Partitioner, newLock func(shard int) lockapi.Lock, newShard func(shard int) S) *Router[S] {
	n := part.Shards()
	r := &Router[S]{
		part:   part,
		locks:  make([]lockapi.Lock, n),
		rws:    make([]lockapi.RWLocker, n),
		seqs:   make([]lockapi.SeqReader, n),
		occ:    make([]occShard, n),
		shards: make([]S, n),
	}
	r.rinfo, _ = part.(RangeInfo)
	for i := 0; i < n; i++ {
		var l lockapi.Lock
		if newLock != nil {
			l = newLock(i)
		}
		if l == nil {
			l = lockapi.Noop{}
		}
		r.locks[i] = l
		r.rws[i], _ = l.(lockapi.RWLocker)
		r.seqs[i], _ = l.(lockapi.SeqReader)
		r.occ[i].k.Store(occKStart)
		r.shards[i] = newShard(i)
	}
	return r
}

// OCCStats returns every shard's optimistic-read counters (index = shard).
func (r *Router[S]) OCCStats() []OCCShardStats {
	out := make([]OCCShardStats, len(r.occ))
	for i := range r.occ {
		st := &r.occ[i]
		out[i] = OCCShardStats{
			Optimistic:         st.optimistic.Load(),
			ValidationFailures: st.vfails.Load(),
			Fallbacks:          st.fallbacks.Load(),
			K:                  int(st.k.Load()),
		}
	}
	return out
}

// Shards returns the shard count.
func (r *Router[S]) Shards() int { return len(r.shards) }

// LockAt returns shard i's lock, for single-threaded setup only (probing
// its capabilities before any session exists).
func (r *Router[S]) LockAt(i int) lockapi.Lock { return r.locks[i] }

// Ordered reports whether shards cover ascending key ranges (RangeInfo), in
// which case cross-shard scans stream in shard order.
func (r *Router[S]) Ordered() bool { return r.rinfo != nil }

// Session is a per-worker router handle carrying one lock context per
// shard. Lock contexts are registered with their lock, so it must only be
// created during single-threaded setup.
type Session[S any] struct {
	r    *Router[S]
	ctxs []lockapi.Ctx
}

// NewSession allocates a worker session.
func (r *Router[S]) NewSession() *Session[S] {
	ctxs := make([]lockapi.Ctx, len(r.locks))
	for i, l := range r.locks {
		ctxs[i] = l.NewCtx()
	}
	return &Session[S]{r: r, ctxs: ctxs}
}

// Exclusive routes key to its shard and runs fn on the payload under the
// shard's exclusive lock.
func (s *Session[S]) Exclusive(p lockapi.Proc, key []byte, fn func(shard int, data S)) {
	s.ExclusiveAt(p, s.r.part.Shard(key), fn)
}

// ExclusiveAt is Exclusive for an explicit shard index.
func (s *Session[S]) ExclusiveAt(p lockapi.Proc, i int, fn func(shard int, data S)) {
	r := s.r
	r.locks[i].Acquire(p, s.ctxs[i])
	fn(i, r.shards[i])
	r.locks[i].Release(p, s.ctxs[i])
}

// SharedAt runs fn on shard i's payload under a shared acquisition when the
// shard lock supports one, degrading to exclusive otherwise. fn must be
// read-only on the payload (up to operations the payload documents as
// shared-safe, like atomic counters).
func (s *Session[S]) SharedAt(p lockapi.Proc, i int, fn func(shard int, data S)) {
	r := s.r
	if rw := r.rws[i]; rw != nil {
		rw.AcquireShared(p, s.ctxs[i])
		fn(i, r.shards[i])
		rw.ReleaseShared(p, s.ctxs[i])
		return
	}
	s.ExclusiveAt(p, i, fn)
}

// OptimisticAt runs fn against shard i's payload on the optimistic read
// path: no lock is taken; instead the read is bracketed by the shard
// seqlock's ReadSeq/ReadValidate and retried on validation failure, up to
// the shard's adaptive attempt budget, after which it degrades to SharedAt.
// The return value reports whether a validated optimistic attempt served
// the read (false means the pessimistic fallback ran).
//
// fn may therefore run several times and must be restartable: it must
// buffer its observations privately and the caller must publish them only
// after OptimisticAt returns — on the attempt that validation discards,
// fn has read torn state. fn must also be read-only in the SharedAt sense
// (payload-documented shared-safe operations only). When shard i's lock has
// no optimistic path (not a lockapi.SeqReader), this is exactly SharedAt.
func (s *Session[S]) OptimisticAt(p lockapi.Proc, i int, fn func(shard int, data S)) bool {
	r := s.r
	sq := r.seqs[i]
	if sq == nil {
		s.SharedAt(p, i, fn)
		return false
	}
	st := &r.occ[i]
	k := int(st.k.Load())
	for a := 0; a < k; a++ {
		st.optimistic.Add(1)
		seq := sq.ReadSeq(p)
		fn(i, r.shards[i])
		if sq.ReadValidate(p, seq) {
			st.noteSuccess(a)
			return true
		}
		st.vfails.Add(1)
	}
	st.noteFallback()
	s.SharedAt(p, i, fn)
	return false
}

// Ascending visits shards from index `from` upward, running fn on each
// payload under its shard lock (shared mode when shared is set and the lock
// supports it). fn returning false stops the walk. At most one shard lock
// is held at a time — deadlock-free, not atomic across shards.
func (s *Session[S]) Ascending(p lockapi.Proc, from int, shared bool, fn func(shard int, data S) bool) {
	r := s.r
	for i := from; i < len(r.shards); i++ {
		cont := true
		visit := func(_ int, data S) { cont = fn(i, data) }
		if shared {
			s.SharedAt(p, i, visit)
		} else {
			s.ExclusiveAt(p, i, visit)
		}
		if !cont {
			return
		}
	}
}
