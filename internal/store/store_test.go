package store

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/rwlock"
	"github.com/clof-go/clof/internal/seqlock"
	"github.com/clof-go/clof/internal/topo"
)

var p0 = lockapi.NewNativeProc(0)

// sumStats totals per-shard engine counters with the engine's Stats.Add.
func sumStats[T any, PT interface {
	*T
	Add(T)
}](per []T) T {
	var total T
	for _, st := range per {
		PT(&total).Add(st)
	}
	return total
}

func TestHashPartitionerCoversAllShards(t *testing.T) {
	part := NewPartitioner(8, 0)
	if _, ok := part.(HashPartitioner); !ok {
		t.Fatalf("NewPartitioner(8, 0) = %T, want HashPartitioner", part)
	}
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
	part := NewPartitioner(4, 100)
	if _, ok := part.(RangePartitioner); !ok {
		t.Fatalf("NewPartitioner(4, 100) = %T, want RangePartitioner", part)
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
}

// TestRouterSharedDegradesToExclusive: on a lock without shared mode,
// SharedAt must still exclude (it takes the exclusive path).
func TestRouterSharedDegradesToExclusive(t *testing.T) {
	r := NewRouter(NewPartitioner(2, 0),
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

// edgeCount is an Observer counting each kind of lock-protocol edge.
type edgeCount struct{ start, acquired, released int }

func (e *edgeCount) AcquireStart(lockapi.Proc) { e.start++ }
func (e *edgeCount) Acquired(lockapi.Proc)     { e.acquired++ }
func (e *edgeCount) Released(lockapi.Proc)     { e.released++ }

// TestRouterSharedUsesRWLocker: with an rwlock shard lock, SharedAt takes the
// shared path (observable because the router reports observer edges for
// exclusive acquisitions only, and reports all three for each of them).
func TestRouterSharedUsesRWLocker(t *testing.T) {
	m := topo.Armv8Server()
	r := NewRouter(NewPartitioner(1, 0),
		func(int) lockapi.Lock { return rwlock.New(m, topo.CacheGroup, locks.NewMCS()) },
		func(int) struct{} { return struct{}{} })
	e := &edgeCount{}
	r.Observe(0, e)
	s := r.NewSession()
	s.SharedAt(p0, 0, func(int, struct{}) {})
	if *e != (edgeCount{}) {
		t.Errorf("shared acquisition emitted edges %+v, want none", *e)
	}
	s.Exclusive(p0, []byte("k"), func(int, struct{}) {})
	if *e != (edgeCount{1, 1, 1}) {
		t.Errorf("exclusive acquisition emitted edges %+v, want one of each", *e)
	}
}

// TestEachVisitsInOrder: Each visits every shard once, in ascending index
// order, under the exclusive lock.
func TestEachVisitsInOrder(t *testing.T) {
	r := NewRouter(NewPartitioner(5, 0),
		func(int) lockapi.Lock { return locks.NewTicket() },
		func(i int) int { return i })
	s := r.NewSession()
	var visited []int
	s.Each(p0, func(shard int, data int) {
		if data != shard {
			t.Errorf("shard %d got payload %d", shard, data)
		}
		visited = append(visited, shard)
	})
	if len(visited) != 5 {
		t.Fatalf("visited %v, want [0 1 2 3 4]", visited)
	}
	for i, sh := range visited {
		if sh != i {
			t.Fatalf("visited %v, want [0 1 2 3 4]", visited)
		}
	}
}

// BenchmarkExclusive times the router's route+lock rung: Session.Exclusive
// with an empty body, that is, the FNV-1a route of a canonical key over 16
// shards plus one uncontended acquire and release of its shard's seq:tkt
// lock (the ycsb-b benchmark's shard lock).
func BenchmarkExclusive(b *testing.B) {
	r := NewRouter(NewPartitioner(16, 0),
		func(int) lockapi.Lock { return seqlock.Wrap(locks.NewTicket()) },
		func(int) struct{} { return struct{}{} })
	s := r.NewSession()
	key := make([]byte, 0, kvstore.KeyWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = kvstore.AppendKey(key[:0], i*7919%1_000_000)
		s.Exclusive(p0, key, func(int, struct{}) {})
	}
}

// BenchmarkOptimistic times the optimistic-read rung, the path most ycsb-b
// requests take: the route of a canonical key plus Session.OptimisticAt with
// an empty read, on BenchmarkExclusive's 16-shard seq:tkt router, from every
// goroutine of b.RunParallel at once. hot-key sends every read to one key's
// shard; spread sends each goroutine's reads over every shard. Each
// goroutine takes its own Session and NativeProc by an atomic index: both
// are made before the parallel section, because NewSession registers lock
// contexts and so must run single-threaded.
func BenchmarkOptimistic(b *testing.B) {
	for _, bc := range []struct {
		name string
		key  func(id, i int) int
	}{
		{"hot-key", func(int, int) int { return 0 }},
		{"spread", func(id, i int) int { return (id*104729 + i*7919) % 1_000_000 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewRouter(NewPartitioner(16, 0),
				func(int) lockapi.Lock { return seqlock.Wrap(locks.NewTicket()) },
				func(int) struct{} { return struct{}{} })
			workers := runtime.GOMAXPROCS(0) // RunParallel's goroutine count
			sessions := make([]*Session[struct{}], workers)
			procs := make([]*lockapi.NativeProc, workers)
			for id := range sessions {
				sessions[id], procs[id] = r.NewSession(), lockapi.NewNativeProc(id)
			}
			var next atomic.Int32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(next.Add(1)) - 1
				s, p := sessions[id], procs[id]
				key := make([]byte, 0, kvstore.KeyWidth)
				for i := 0; pb.Next(); i++ {
					key = kvstore.AppendKey(key[:0], bc.key(id, i))
					s.OptimisticAt(p, r.part.Shard(key), func(int, struct{}) {})
				}
			})
		})
	}
}
