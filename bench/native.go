package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/xrand"
)

// nativeSpec is a closed-loop YCSB-style run of the sharded store on real
// goroutines: each worker sends its next request when the previous returns.
type nativeSpec struct {
	name     string
	shards   int
	lock     string // catalog name, built for topo.X86Server
	keys     int
	readPct  int
	zipf     bool // Zipfian θ=0.99 ranks scattered over the keyspace; uniform otherwise
	memtable int  // kvstore.Options.MemtableBytes
	workers  int
	setups   int // timed OpenKV+PreloadKV repetitions (the last one is kept)
	// rate is the nominal request rate (ops/s) that sizes the work: the
	// warm-up issues rate requests and each of the reps timed repetitions
	// repOps. A fixed amount of work, rather than a fixed time, makes every
	// run pass through the same engine states — memtable fill, freezes —
	// at the same request, however fast the host is that minute.
	rate   int
	reps   int
	repOps int
}

// valueSize is the written value size; PreloadKV writes valueSize zero
// bytes, so a read must return either those or the key's own pattern.
const valueSize = 100

var preloadValue = make([]byte, valueSize)

// kvSession is the part of store.KVSession the workers call; tests
// substitute a fake to show that a wrong value counts as a failure.
type kvSession interface {
	Get(p lockapi.Proc, key []byte) ([]byte, bool)
	Put(p lockapi.Proc, key, value []byte)
}

// putPattern fills dst (valueSize bytes) with the value every Put of key k
// writes: words derived from k, never the all-zero preload value.
func putPattern(dst []byte, k int) {
	x := uint64(k)*0x9e3779b97f4a7c15 | 1
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], x+uint64(i))
	}
	for i := len(dst) &^ 7; i < len(dst); i++ {
		dst[i] = byte(x >> (8 * (i & 7)))
	}
}

// worker is one closed-loop client.
type worker struct {
	p        *lockapi.NativeProc
	s        kvSession
	rng      *xrand.Rand
	zipf     *xrand.Zipf
	keys     int
	readPct  int
	key      []byte
	val      []byte
	want     []byte
	reads    hist
	updates  hist
	ops      uint64
	failures uint64
}

func newWorker(id int, s kvSession, spec nativeSpec, seed uint64) *worker {
	rng := xrand.New(seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	w := &worker{
		p: lockapi.NewNativeProc(id), s: s, rng: rng, keys: spec.keys, readPct: spec.readPct,
		key: make([]byte, 0, kvstore.KeyWidth), val: make([]byte, valueSize), want: make([]byte, valueSize),
	}
	if spec.zipf {
		w.zipf = xrand.NewZipf(rng.Split(), uint64(spec.keys), 0.99)
	}
	return w
}

func (w *worker) pick() int {
	if w.zipf != nil {
		// Scatter ranks with a multiplicative hash so the hot keys spread
		// over the keyspace, and therefore over shards, as YCSB does.
		return int((w.zipf.Next() * 2654435761) % uint64(w.keys))
	}
	return w.rng.Intn(w.keys)
}

// claimBatch is how many requests a worker takes from the shared budget at
// a time: large enough that the shared counter costs nothing per request,
// small enough (about 100 µs of requests) that the workers finish close
// together.
const claimBatch = 64

// run issues requests, claiming them from budget in batches until it is
// spent.
func (w *worker) run(budget *atomic.Int64, tr *tracer) {
	for {
		n := budget.Add(-claimBatch) + claimBatch
		if n <= 0 {
			return
		}
		w.issue(int(min(n, claimBatch)), tr)
	}
}

// issue issues n requests. With tr nil each call is timed into the worker's
// latency histograms; otherwise tr records its spans.
func (w *worker) issue(n int, tr *tracer) {
	for ; n > 0; n-- {
		k := w.pick()
		w.key = kvstore.AppendKey(w.key[:0], k)
		var t0 time.Time
		if w.rng.Intn(100) < w.readPct {
			if tr == nil {
				t0 = time.Now()
			} else {
				tr.begin(w.p, kStoreGet)
			}
			v, ok := w.s.Get(w.p, w.key)
			if tr == nil {
				w.reads.record(int64(time.Since(t0)))
			} else {
				tr.end(w.p)
			}
			putPattern(w.want, k)
			if !ok || !(bytes.Equal(v, w.want) || bytes.Equal(v, preloadValue)) {
				w.failures++
			}
		} else {
			putPattern(w.val, k)
			if tr == nil {
				t0 = time.Now()
			} else {
				tr.begin(w.p, kStorePut)
			}
			w.s.Put(w.p, w.key, w.val)
			if tr == nil {
				w.updates.record(int64(time.Since(t0)))
			} else {
				tr.end(w.p)
			}
		}
		w.ops++
	}
}

// repResult is one timed repetition.
type repResult struct {
	ops            uint64
	elapsed        time.Duration
	reads, updates hist
}

// drive runs the workers concurrently until they have issued ops requests
// between them, and returns the repetition's totals. The workers share one
// budget rather than a fixed share each, so a worker whose CPU the host
// slows does less of the work instead of holding the repetition open while
// the other idles.
func drive(workers []*worker, ops int, tr *tracer) repResult {
	var wg sync.WaitGroup
	var budget atomic.Int64
	budget.Store(int64(ops))
	for _, w := range workers {
		w.ops, w.reads, w.updates = 0, hist{}, hist{}
	}
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(&budget, tr)
		}(w)
	}
	wg.Wait()
	r := repResult{elapsed: time.Since(start)}
	for _, w := range workers {
		r.ops += w.ops
		r.reads.merge(&w.reads)
		r.updates.merge(&w.updates)
	}
	return r
}

// nativeResult is one phase (untraced or traced) of a native run.
type nativeResult struct {
	setupS []float64
	reps   []repResult
	// attempted and failed count every request, warm-up included.
	attempted, failed uint64
	// Counter deltas over the timed repetitions.
	reads, updates    uint64
	occ               store.OCCShardStats
	puts, compactions uint64
	runsEnd           int
	allocBytes        uint64
	gcCycles          uint32
	gcPauseNs         uint64
	tr                *tracer
}

// openStore builds and preloads the store; with tr set every shard lock is
// timed by it.
func openStore(spec nativeSpec, tr *tracer) (*store.KV, error) {
	e, err := catalog.Lookup(spec.lock)
	if err != nil {
		return nil, err
	}
	m := topo.X86Server()
	locks := make([]lockapi.Lock, spec.shards)
	for i := range locks {
		locks[i] = e.New(m)
		if tr != nil {
			if locks[i], err = wrap(locks[i], tr); err != nil {
				return nil, err
			}
		}
	}
	kv := store.OpenKV(store.KVOptions{
		Shards:  spec.shards,
		NewLock: func(i int) lockapi.Lock { return locks[i] },
		Shard:   kvstore.Options{MemtableBytes: spec.memtable},
	})
	store.PreloadKV(kv, spec.keys)
	return kv, nil
}

// runNative runs one phase: spec.setups timed set-ups, a warm-up, and
// spec.reps timed repetitions. traced phases set the store up once,
// untimed, with every shard lock wrapped.
func runNative(spec nativeSpec, seed uint64, traced, keepSpans bool) (*nativeResult, error) {
	res := &nativeResult{}
	var kv *store.KV
	var err error
	runtime.GC() // a previous phase's store is not this phase's cost
	if traced {
		res.tr = newTracer(spec.workers, hostClock(), false, keepSpans)
		if kv, err = openStore(spec, res.tr); err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < spec.setups; i++ {
			if kv != nil {
				kv = nil
				runtime.GC()
			}
			t0 := time.Now()
			if kv, err = openStore(spec, nil); err != nil {
				return nil, err
			}
			res.setupS = append(res.setupS, time.Since(t0).Seconds())
		}
	}
	stats := kv.NewSession()
	workers := make([]*worker, spec.workers)
	for i := range workers {
		workers[i] = newWorker(i, kv.NewSession(), spec, seed)
	}
	res.attempted = drive(workers, spec.rate, nil).ops

	p := lockapi.NewNativeProc(0)
	occ0, kv0 := sumOCC(kv.OCCStats()), sumKV(stats.ShardStats(p))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if res.tr != nil {
		res.tr.startTrack(spec.name)
	}
	for r := 0; r < spec.reps; r++ {
		rr := drive(workers, spec.repOps, res.tr)
		res.attempted += rr.ops
		res.reads += rr.reads.n
		res.updates += rr.updates.n
		res.reps = append(res.reps, rr)
	}
	runtime.ReadMemStats(&ms1)
	occ1, kv1 := sumOCC(kv.OCCStats()), sumKV(stats.ShardStats(p))
	for _, w := range workers {
		res.failed += w.failures
	}
	res.occ = store.OCCShardStats{
		Optimistic:         occ1.Optimistic - occ0.Optimistic,
		ValidationFailures: occ1.ValidationFailures - occ0.ValidationFailures,
		Fallbacks:          occ1.Fallbacks - occ0.Fallbacks,
	}
	res.puts = kv1.Puts - kv0.Puts
	res.compactions = kv1.Compactions - kv0.Compactions
	res.runsEnd = kv1.Runs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	if res.attempted == 0 {
		return nil, fmt.Errorf("%s: no request completed", spec.name)
	}
	return res, nil
}

func sumOCC(st []store.OCCShardStats) store.OCCShardStats {
	var t store.OCCShardStats
	for _, s := range st {
		t.Optimistic += s.Optimistic
		t.ValidationFailures += s.ValidationFailures
		t.Fallbacks += s.Fallbacks
	}
	return t
}

func sumKV(st []kvstore.Stats) kvstore.Stats {
	var t kvstore.Stats
	for _, s := range st {
		t.Add(s)
	}
	return t
}
