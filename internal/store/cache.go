package store

import (
	"github.com/clof-go/clof/internal/kyoto"
	"github.com/clof-go/clof/internal/lockapi"
)

// This file runs kyoto.CacheDB behind the shard router. Unlike the LSM,
// every cache operation — including Get — takes the exclusive path: a kyoto
// Get refreshes the record's LRU recency, so reads mutate shard state and a
// shared acquisition would race the list splice. (That asymmetry is the
// point of keeping both engines behind one router: the serving layer, not
// the engine, decides which operations may share.)

// CacheOptions configures a sharded LRU cache.
type CacheOptions struct {
	// Shards is the shard count (default 1). Keys route by hash — an LRU
	// cache has no range scans, so range partitioning buys nothing.
	Shards int
	// NewLock supplies shard i's lock (nil function or result: lockapi.Noop).
	NewLock func(shard int) lockapi.Lock
	// Shard is the per-shard engine configuration; its Capacity applies per
	// shard, so the total capacity is Shards × Capacity.
	Shard kyoto.Options
}

// Cache is the sharded LRU cache. Eviction is per shard: each shard evicts
// its own least-recent record at its own capacity, which approximates
// global LRU the way any sharded cache does (a globally-hot record can be
// evicted while a colder record on a quieter shard survives).
type Cache struct {
	router *Router[*kyoto.CacheDB]
}

// OpenCache builds the shards. Single-shard behavior is bit-identical to the
// engine driven under the same lock.
func OpenCache(opts CacheOptions) *Cache {
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	return &Cache{router: NewRouter(NewHashPartitioner(opts.Shards), opts.NewLock,
		func(int) *kyoto.CacheDB { return kyoto.Open(opts.Shard) })}
}

// Shards returns the shard count.
func (c *Cache) Shards() int { return c.router.Shards() }

// Count sums the shards' record counts (atomic point samples).
func (c *Cache) Count() int {
	n := 0
	for _, db := range c.router.shards {
		n += db.Count()
	}
	return n
}

// CacheSession is a per-worker handle carrying the router's lock contexts.
// Create only during single-threaded setup.
type CacheSession struct {
	s *Session[*kyoto.CacheDB]
}

// NewSession allocates a worker session.
func (c *Cache) NewSession() *CacheSession { return &CacheSession{s: c.router.NewSession()} }

// Set inserts or overwrites a record on its key's shard. value is copied.
func (s *CacheSession) Set(p lockapi.Proc, key string, value []byte) {
	s.s.Exclusive(p, []byte(key), func(_ int, db *kyoto.CacheDB) { db.Set(key, value) })
}

// Get fetches a record and refreshes its recency (exclusive: see the file
// comment — kyoto reads mutate the LRU list).
func (s *CacheSession) Get(p lockapi.Proc, key string) (v []byte, ok bool) {
	s.s.Exclusive(p, []byte(key), func(_ int, db *kyoto.CacheDB) { v, ok = db.Get(key) })
	return v, ok
}

// Remove deletes a record; it reports whether the key existed.
func (s *CacheSession) Remove(p lockapi.Proc, key string) (ok bool) {
	s.s.Exclusive(p, []byte(key), func(_ int, db *kyoto.CacheDB) { ok = db.Remove(key) })
	return ok
}

// StatsSnapshot aggregates every shard's counters.
func (s *CacheSession) StatsSnapshot(p lockapi.Proc) kyoto.Stats {
	var total kyoto.Stats
	for _, st := range s.ShardStats(p) {
		total.Add(st)
	}
	return total
}

// ShardStats returns one consistent counter snapshot per shard.
func (s *CacheSession) ShardStats(p lockapi.Proc) []kyoto.Stats {
	out := make([]kyoto.Stats, s.s.r.Shards())
	s.s.Ascending(p, 0, false, func(i int, db *kyoto.CacheDB) bool {
		out[i] = db.Stats()
		return true
	})
	return out
}
