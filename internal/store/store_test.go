package store

import (
	"testing"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/rwlock"
	"github.com/clof-go/clof/internal/topo"
)

var p0 = lockapi.NewNativeProc(0)

func TestHashPartitionerCoversAllShards(t *testing.T) {
	part := NewHashPartitioner(8)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		s := part.Shard(kvstore.Key(i))
		if s < 0 || s >= 8 {
			t.Fatalf("shard %d out of range", s)
		}
		seen[s] = true
	}
	if len(seen) != 8 {
		t.Errorf("1000 keys hit only %d/8 shards", len(seen))
	}
}

func TestRangePartitionerBounds(t *testing.T) {
	part, err := NewRangePartitioner(UniformBounds(100, 4, kvstore.Key))
	if err != nil {
		t.Fatal(err)
	}
	if part.Shards() != 4 {
		t.Fatalf("shards = %d", part.Shards())
	}
	for i := 0; i < 100; i++ {
		want := i / 25
		if got := part.Shard(kvstore.Key(i)); got != want {
			t.Fatalf("key %d routed to shard %d, want %d", i, got, want)
		}
	}
	// Keys past the last bound land on the last shard.
	if got := part.Shard(kvstore.Key(10_000)); got != 3 {
		t.Errorf("out-of-range key routed to %d, want last shard", got)
	}
	// Routing must be monotone in the key for a range partition.
	if part.FirstShard(kvstore.Key(0)) != 0 {
		t.Error("FirstShard(first key) != 0")
	}
}

func TestRangePartitionerRejectsUnsortedBounds(t *testing.T) {
	if _, err := NewRangePartitioner([][]byte{kvstore.Key(5), kvstore.Key(5)}); err == nil {
		t.Error("duplicate bounds accepted")
	}
	if _, err := NewRangePartitioner([][]byte{kvstore.Key(9), kvstore.Key(3)}); err == nil {
		t.Error("descending bounds accepted")
	}
}

// TestRouterSharedDegradesToExclusive: on a lock without shared mode,
// SharedAt must still exclude (it takes the exclusive path).
func TestRouterSharedDegradesToExclusive(t *testing.T) {
	r := NewRouter(NewHashPartitioner(2),
		func(int) lockapi.Lock { return locks.NewTicket() },
		func(int) *int { v := 0; return &v })
	s := r.NewSession()
	ran := false
	s.SharedAt(p0, 0, func(shard int, data *int) {
		ran = true
		*data++ // legal: the degraded path is exclusive
	})
	if !ran {
		t.Fatal("SharedAt never ran fn")
	}
}

// TestRouterSharedUsesRWLocker: with an rwlock shard lock, SharedAt takes the
// shared path (observable because the adapter emits no observer edges for
// shared acquisitions, while the exclusive path emits both).
func TestRouterSharedUsesRWLocker(t *testing.T) {
	m := topo.Armv8Server()
	edges := 0
	o := lockapi.ObserverFromFuncs(nil, func(lockapi.Proc) { edges++ }, nil)
	r := NewRouter(NewHashPartitioner(1),
		func(int) lockapi.Lock {
			a := rwlock.Adapt(rwlock.New(m, topo.CacheGroup, locks.NewMCS()))
			a.Instrument(o)
			return a
		},
		func(int) struct{} { return struct{}{} })
	s := r.NewSession()
	s.SharedAt(p0, 0, func(int, struct{}) {})
	if edges != 0 {
		t.Errorf("shared acquisition emitted %d exclusive edges", edges)
	}
	s.Exclusive(p0, []byte("k"), func(int, struct{}) {})
	if edges != 1 {
		t.Errorf("exclusive acquisition emitted %d acquired edges, want 1", edges)
	}
}

// TestAscendingEarlyStop: fn returning false stops the walk.
func TestAscendingEarlyStop(t *testing.T) {
	r := NewRouter[int](NewHashPartitioner(5), nil, func(i int) int { return i })
	s := r.NewSession()
	var visited []int
	s.Ascending(p0, 1, false, func(shard int, _ int) bool {
		visited = append(visited, shard)
		return shard < 3
	})
	if len(visited) != 3 || visited[0] != 1 || visited[2] != 3 {
		t.Errorf("visited %v, want [1 2 3]", visited)
	}
}
