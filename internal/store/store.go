// Package store is the sharded serving layer (DESIGN.md S32): a generic
// shard router that partitions a keyspace across N shards, each guarded by
// its own pluggable lockapi.Lock — any catalog entry, including the
// reader-writer lock (shared-mode reads via lockapi.RWLocker) and the cr:/
// clof: compositions. Natively it serves kvstore.DB (the LSM, kv.go); the
// simulated serving driver (internal/workload) runs it over its own payload.
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
	"sort"

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

// HashPartitioner routes by FNV-1a hash modulo the shard count: keys
// interleave across shards, so uniform workloads spread evenly regardless of
// key locality, and range scans must merge all shards.
type HashPartitioner struct {
	n int
}

// Shards implements Partitioner.
func (h HashPartitioner) Shards() int { return h.n }

// Shard implements Partitioner (FNV-1a).
func (h HashPartitioner) Shard(key []byte) int {
	sum := uint64(14695981039346656037)
	for _, b := range key {
		sum ^= uint64(b)
		sum *= 1099511628211
	}
	return int(sum % uint64(h.n))
}

// RangePartitioner routes by split points: shard i covers
// [bounds[i-1], bounds[i]) with the first shard open below and the last open
// above. Contiguous key ranges stay on one shard, so range scans stream
// shard by shard in key order — and skewed key ranges produce hot shards,
// the trade-off the kv experiment's hotspot workload measures.
type RangePartitioner struct {
	// bounds are the n-1 non-descending split keys.
	bounds [][]byte
}

// Shards implements Partitioner.
func (r RangePartitioner) Shards() int { return len(r.bounds) + 1 }

// Shard implements Partitioner: binary search for the first bound above key.
// Under a range partition the routing shard of a scan's start key is also
// the first shard the scan visits.
func (r RangePartitioner) Shard(key []byte) int {
	return sort.Search(len(r.bounds), func(i int) bool {
		return bytes.Compare(key, r.bounds[i]) < 0
	})
}

// NewPartitioner returns the store's routing for shards shards (>= 1). With
// rangeKeys > 0 it is a range partition dividing the canonical kvstore.Key
// space [0, rangeKeys) into equal ranges (a linear byte-space split would be
// useless: canonical keys share long "0" prefixes); otherwise it is the
// FNV-1a hash partition. A range partition with rangeKeys < shards repeats
// split keys, which leaves some shards empty but routes correctly. OpenKV
// and the simulated serving driver (internal/workload) both route through
// it.
func NewPartitioner(shards, rangeKeys int) Partitioner {
	if shards < 1 {
		panic("store: partitioner needs at least one shard")
	}
	if rangeKeys <= 0 {
		return HashPartitioner{n: shards}
	}
	bounds := make([][]byte, 0, shards-1)
	for i := 1; i < shards; i++ {
		bounds = append(bounds, kvstore.Key(i*rangeKeys/shards))
	}
	return RangePartitioner{bounds: bounds}
}

// occAttempts bounds an optimistic read (DESIGN.md S33): up to occAttempts
// validated attempts, then one SharedAt. The bound is a constant, so a read
// keeps no state between calls and writes nothing shared on any substrate.
const occAttempts = 8

// OCCShardStats is one shard's optimistic-read accounting, as exposed to
// the obs layer and the kv experiment (retry/validation-failure metrics per
// shard). Each session counts its own reads; Router.OCCStats sums them.
type OCCShardStats struct {
	// Optimistic counts optimistic read attempts (including retries).
	Optimistic uint64
	// ValidationFailures counts attempts whose validation failed.
	ValidationFailures uint64
	// Fallbacks counts reads that exhausted the budget and took the lock.
	Fallbacks uint64
}

// Router partitions a keyspace across shards of payload type S, guarding
// shard i with its own lock. It is the generic core that KV wraps natively
// and workload.RunKV instantiates over its simulated payload.
type Router[S any] struct {
	part   Partitioner
	locks  []lockapi.Lock
	rws    []lockapi.RWLocker  // non-nil where locks[i] supports shared mode
	seqs   []lockapi.SeqReader // non-nil where locks[i] supports optimistic reads
	obs    []lockapi.Observer  // non-nil where Observe attached one
	sess   []*Session[S]       // every session, for OCCStats
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
		obs:    make([]lockapi.Observer, n),
		shards: make([]S, n),
	}
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
		r.shards[i] = newShard(i)
	}
	return r
}

// OCCStats returns every shard's optimistic-read counters (index = shard),
// summed over the router's sessions. The counters are plain session fields,
// so read them only at quiescence, when no session is running.
func (r *Router[S]) OCCStats() []OCCShardStats {
	out := make([]OCCShardStats, len(r.shards))
	for _, s := range r.sess {
		for i, st := range s.occ {
			out[i].Optimistic += st.Optimistic
			out[i].ValidationFailures += st.ValidationFailures
			out[i].Fallbacks += st.Fallbacks
		}
	}
	return out
}

// Shards returns the shard count.
func (r *Router[S]) Shards() int { return len(r.shards) }

// LockAt returns shard i's lock, for single-threaded setup only (probing
// its capabilities before any session exists).
func (r *Router[S]) LockAt(i int) lockapi.Lock { return r.locks[i] }

// Observe attaches o to shard i's exclusive path: ExclusiveAt — and so
// every exclusive-mode fallback of SharedAt and OptimisticAt, and Each —
// reports the acquire-start, acquired and released edges around the shard
// lock's Acquire and Release. Shared and optimistic reads report none (the
// obs layer's handover reconstruction assumes mutual exclusion). nil
// detaches. Single-threaded setup only.
func (r *Router[S]) Observe(i int, o lockapi.Observer) { r.obs[i] = o }

// Ordered reports whether shards cover ascending key ranges (a
// RangePartitioner), in which case a cross-shard scan visits the shards
// Span names in key order.
func (r *Router[S]) Ordered() bool {
	_, ok := r.part.(RangePartitioner)
	return ok
}

// Span returns the shards first..last that a scan of [start, end) visits
// (end nil: unbounded). Under a range partition they are the shards whose
// ranges meet the span: the start key's shard up to the count of split
// keys below end (first > last: none). Under the hash partition every
// shard holds some of the span, so it is all of them.
func (r *Router[S]) Span(start, end []byte) (first, last int) {
	rp, ok := r.part.(RangePartitioner)
	if !ok {
		return 0, r.Shards() - 1
	}
	return rp.Shard(start), sort.Search(len(rp.bounds), func(i int) bool {
		return end != nil && bytes.Compare(rp.bounds[i], end) >= 0
	})
}

// Session is a per-worker router handle carrying one lock context and one
// set of optimistic-read counters per shard. Lock contexts are registered
// with their lock and the session with its router, so it must only be
// created during single-threaded setup.
type Session[S any] struct {
	r    *Router[S]
	ctxs []lockapi.Ctx
	occ  []OCCShardStats
}

// NewSession allocates a worker session and registers it with the router.
func (r *Router[S]) NewSession() *Session[S] {
	ctxs := make([]lockapi.Ctx, len(r.locks))
	for i, l := range r.locks {
		ctxs[i] = l.NewCtx()
	}
	s := &Session[S]{r: r, ctxs: ctxs, occ: make([]OCCShardStats, len(r.locks))}
	r.sess = append(r.sess, s)
	return s
}

// Exclusive routes key to its shard and runs fn on the payload under the
// shard's exclusive lock.
func (s *Session[S]) Exclusive(p lockapi.Proc, key []byte, fn func(shard int, data S)) {
	s.ExclusiveAt(p, s.r.part.Shard(key), fn)
}

// ExclusiveAt is Exclusive for an explicit shard index.
func (s *Session[S]) ExclusiveAt(p lockapi.Proc, i int, fn func(shard int, data S)) {
	r := s.r
	o := r.obs[i]
	if o != nil {
		o.AcquireStart(p)
	}
	r.locks[i].Acquire(p, s.ctxs[i])
	if o != nil {
		o.Acquired(p)
	}
	fn(i, r.shards[i])
	r.locks[i].Release(p, s.ctxs[i])
	if o != nil {
		o.Released(p)
	}
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
// occAttempts attempts, after which it degrades to SharedAt once.
// The return value reports whether a validated optimistic attempt served
// the read (false means the pessimistic fallback ran). This is the store's
// only optimistic-read loop: KVSession.Get and Scan read through it natively,
// and workload.RunKV runs it on the simulator.
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
	st := &s.occ[i]
	for range occAttempts {
		st.Optimistic++
		seq := sq.ReadSeq(p)
		fn(i, r.shards[i])
		if sq.ReadValidate(p, seq) {
			return true
		}
		st.ValidationFailures++
	}
	st.Fallbacks++
	s.SharedAt(p, i, fn)
	return false
}

// Each visits every shard in ascending index order, running fn on its
// payload under the shard's exclusive lock. At most one shard lock is held
// at a time — deadlock-free, not atomic across shards.
func (s *Session[S]) Each(p lockapi.Proc, fn func(shard int, data S)) {
	for i := range s.r.shards {
		s.ExclusiveAt(p, i, fn)
	}
}
