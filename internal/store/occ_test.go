package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/rwlock"
	"github.com/clof-go/clof/internal/seqlock"
	"github.com/clof-go/clof/internal/topo"
)

// openSeqSharded builds a KV whose shard locks are seq:tkt — every read
// takes the optimistic validated path first.
func openSeqSharded(shards, rangeKeys int) *KV {
	return OpenKV(KVOptions{
		Shards:    shards,
		RangeKeys: rangeKeys,
		NewLock:   func(int) lockapi.Lock { return seqlock.Wrap(locks.NewTicket()) },
		Shard:     kvstore.Options{MemtableBytes: 400, MaxRuns: 2, Seed: 11},
	})
}

// TestOCCMatchesOracleQuiescent: with no concurrent writers every optimistic
// read validates on the first attempt, and the OCC Get/Scan results must
// match the map oracle exactly — same seeded stream discipline as
// TestShardedOracle, on seq:tkt shard locks.
func TestOCCMatchesOracleQuiescent(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		rangeKeys int
	}{{"hash", 0}, {"range", 200}} {
		t.Run(cfg.name, func(t *testing.T) {
			kv := openSeqSharded(4, cfg.rangeKeys)
			s := kv.NewSession()
			oracle := map[string]string{}
			rng := uint64(7)
			for i := 0; i < 800; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := string(kvstore.Key(int(rng>>33) % 200))
				switch (rng >> 20) % 4 {
				case 0, 1:
					v := fmt.Sprintf("v%d", i)
					s.Put(p0, []byte(k), []byte(v))
					oracle[k] = v
				default:
					got, ok := s.Get(p0, []byte(k))
					want, wok := oracle[k]
					if ok != wok || (ok && string(got) != want) {
						t.Fatalf("Get(%q) = %q,%v want %q,%v", k, got, ok, want, wok)
					}
				}
			}
			seen := map[string]string{}
			var prev []byte
			s.Scan(p0, kvstore.Key(0), nil, func(k, v []byte) bool {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Fatalf("scan out of order: %q after %q", k, prev)
				}
				prev = append(prev[:0], k...)
				seen[string(k)] = string(v)
				return true
			})
			if len(seen) != len(oracle) {
				t.Fatalf("scan saw %d keys, oracle has %d", len(seen), len(oracle))
			}
			for k, v := range oracle {
				if seen[k] != v {
					t.Fatalf("scan %q = %q, want %q", k, seen[k], v)
				}
			}
			var opt uint64
			for _, st := range kv.OCCStats() {
				opt += st.Optimistic
				if st.ValidationFailures != 0 || st.Fallbacks != 0 {
					t.Fatalf("quiescent run failed validations: %+v", st)
				}
			}
			if opt == 0 {
				t.Fatal("no optimistic reads recorded — fast path not taken")
			}
		})
	}
}

// TestScanVisitsOnlyCoveredShards: a range scan reads only the shards its
// keys can live on (Router.Span). On 4 range shards of 10 keys each, a scan
// of keys [10, 20) takes one optimistic read of shard 1 and none of the
// shards past its end; an unbounded scan from key 10 then reads shards 1-3.
func TestScanVisitsOnlyCoveredShards(t *testing.T) {
	kv := openSeqSharded(4, 40)
	s := kv.NewSession()
	for i := 0; i < 40; i++ {
		s.Put(p0, kvstore.Key(i), []byte("v"))
	}
	for _, c := range []struct {
		end  []byte
		keys int
		want []uint64 // cumulative optimistic reads per shard
	}{
		{kvstore.Key(20), 10, []uint64{0, 1, 0, 0}},
		{nil, 30, []uint64{0, 2, 1, 1}},
	} {
		n := 0
		s.Scan(p0, kvstore.Key(10), c.end, func(k, v []byte) bool { n++; return true })
		if n != c.keys {
			t.Fatalf("scan from key 10 to %q saw %d keys, want %d", c.end, n, c.keys)
		}
		for i, st := range kv.OCCStats() {
			if st.Optimistic != c.want[i] {
				t.Errorf("after the scan to %q: shard %d took %d optimistic reads, want %d", c.end, i, st.Optimistic, c.want[i])
			}
		}
	}
}

// TestOCCConcurrentWriters is the property test behind the -race CI pass:
// reader goroutines hammer OCC Get/Scan while writers mutate the same keys.
// Every value is self-describing (its first KeyWidth bytes repeat its key),
// so any torn or misrouted read — a value escaping a failed validation, a
// key paired with another key's bytes — is detected, and the race detector
// checks the unlocked traversals are data-race-free.
func TestOCCConcurrentWriters(t *testing.T) {
	const (
		keys      = 128
		writers   = 2
		readers   = 4
		writerOps = 3000
	)
	for _, cfg := range []struct {
		name      string
		rangeKeys int
	}{{"hash", 0}, {"range", keys}} {
		t.Run(cfg.name, func(t *testing.T) {
			kv := openSeqSharded(4, cfg.rangeKeys)
			// Sessions and procs are set up single-threaded, one per worker.
			sessions := make([]*KVSession, writers+readers)
			for i := range sessions {
				sessions[i] = kv.NewSession()
			}
			legal := func(k, v []byte) bool { return bytes.HasPrefix(v, k) }

			var wg sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := sessions[w]
					p := lockapi.NewNativeProc(w)
					rng := uint64(w + 1)
					for i := 0; i < writerOps; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						key := kvstore.Key(int(rng>>33) % keys)
						s.Put(p, key, append(key, fmt.Sprintf("#w%d.%d", w, i)...))
					}
				}(w)
			}
			go func() { wg.Wait(); close(done) }()

			var rg sync.WaitGroup
			for rd := 0; rd < readers; rd++ {
				rg.Add(1)
				go func(rd int) {
					defer rg.Done()
					s := sessions[writers+rd]
					p := lockapi.NewNativeProc(writers + rd)
					rng := uint64(rd + 101)
					for alive := true; alive; {
						select {
						case <-done:
							alive = false
						default:
						}
						rng = rng*6364136223846793005 + 1442695040888963407
						key := kvstore.Key(int(rng>>33) % keys)
						if (rng>>20)%4 == 0 {
							var prev []byte
							s.Scan(p, key, nil, func(k, v []byte) bool {
								if prev != nil && bytes.Compare(prev, k) >= 0 {
									t.Errorf("scan out of order: %q after %q", k, prev)
									return false
								}
								prev = append(prev[:0], k...)
								if !legal(k, v) {
									t.Errorf("scan: torn value %q for key %q", v, k)
									return false
								}
								return true
							})
						} else if v, ok := s.Get(p, key); ok && !legal(key, v) {
							t.Errorf("get: torn value %q for key %q", v, key)
							alive = false
						}
					}
				}(rd)
			}
			rg.Wait()

			var st OCCShardStats
			for _, sh := range kv.OCCStats() {
				st.Optimistic += sh.Optimistic
				st.ValidationFailures += sh.ValidationFailures
				st.Fallbacks += sh.Fallbacks
			}
			if st.Optimistic == 0 {
				t.Fatal("no optimistic reads recorded")
			}
			t.Logf("%s: optimistic=%d vfails=%d fallbacks=%d",
				cfg.name, st.Optimistic, st.ValidationFailures, st.Fallbacks)
		})
	}
}

// TestOCCGetSeesEveryCompletedPut: one writer Puts keys in increasing order
// into seq:tkt shards whose tiny memtables freeze and compact constantly,
// and publishes a high-water mark after each Put returns. Optimistic readers Get random keys below the mark: each must be
// found with its value, since a completed Put is never absent. This catches
// a layer's hash structure missing a key the layer holds — a memtable
// index that skips a key put after every other, a freeze or a compaction
// that fills its run's filter wrongly — which a validated read would report
// as a legal "absent", so TestOCCConcurrentWriters (whose readers also draw
// keys no writer has put yet) cannot.
func TestOCCGetSeesEveryCompletedPut(t *testing.T) {
	const (
		keys    = 3000
		readers = 3
	)
	kv := openSeqSharded(4, 0)
	sessions := make([]*KVSession, 1+readers)
	for i := range sessions {
		sessions[i] = kv.NewSession()
	}
	var mark atomic.Int64 // keys [0, mark) have been Put
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		p := lockapi.NewNativeProc(0)
		for i := 0; i < keys; i++ {
			key := kvstore.Key(i)
			sessions[0].Put(p, key, key)
			mark.Store(int64(i + 1))
		}
	}()
	var reads atomic.Int64
	for rd := 1; rd <= readers; rd++ {
		go func(rd int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(rd)
			rng := uint64(rd)
			key := make([]byte, 0, kvstore.KeyWidth)
			for {
				m := mark.Load()
				if m == 0 {
					continue
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				key = kvstore.AppendKey(key[:0], int((rng>>33)%uint64(m)))
				if v, ok := sessions[rd].Get(p, key); !ok || !bytes.Equal(v, key) {
					t.Errorf("Get(%s) = %q,%v after its Put returned", key, v, ok)
					return
				}
				reads.Add(1)
				if m == keys {
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	var compactions uint64
	for _, st := range sessions[0].ShardStats(p0) {
		compactions += st.Compactions
	}
	if compactions == 0 || reads.Load() == 0 {
		t.Fatalf("compactions = %d, reads = %d: the test must compact under reads", compactions, reads.Load())
	}
	t.Logf("%d reads, %d compactions", reads.Load(), compactions)
}

// scriptedSeq is a shard lock whose optimistic reads validate on a script:
// each ReadValidate consumes the next verdict (true once the script is
// empty), and a failed verdict first runs onFail — the writer whose
// version bump the failure stands for. It counts ReadSeq calls and
// exclusive acquisitions; it excludes nothing, so it is single-threaded
// only.
type scriptedSeq struct {
	lockapi.Noop
	script   []bool
	onFail   func()
	reads    int
	acquires int
}

func (l *scriptedSeq) Acquire(lockapi.Proc, lockapi.Ctx) { l.acquires++ }

func (l *scriptedSeq) ReadSeq(lockapi.Proc) uint64 {
	l.reads++
	return 0
}

func (l *scriptedSeq) ReadValidate(lockapi.Proc, uint64) bool {
	ok := true
	if len(l.script) > 0 {
		ok, l.script = l.script[0], l.script[1:]
	}
	if !ok && l.onFail != nil {
		l.onFail()
	}
	return ok
}

// TestOCCFixedBudgetScripted pins the optimistic-read loop that Get, Scan
// and the simulated serving driver share (Session.OptimisticAt) on a
// scripted seqlock: reads return only the validated attempt's data (or the
// locked fallback's), every read gets 8 attempts before it falls back to
// the lock once — the read after a fallback included — and OCCStats sums
// every session's attempts, failures and fallbacks.
func TestOCCFixedBudgetScripted(t *testing.T) {
	const attempts = 8 // the budget every read gets
	for _, cfg := range []struct {
		name      string
		rangeKeys int
	}{{"hash", 0}, {"range", 100}} {
		t.Run(cfg.name, func(t *testing.T) {
			lk := &scriptedSeq{}
			kv := OpenKV(KVOptions{
				RangeKeys: cfg.rangeKeys,
				NewLock:   func(int) lockapi.Lock { return lk },
			})
			db := kv.router.shards[0]
			s1, s2 := kv.NewSession(), kv.NewSession()
			k1, k2 := kvstore.Key(1), kvstore.Key(2)
			db.Put(k1, []byte("old"))

			var want OCCShardStats
			wantAcquires := 0
			// step runs one read under a script of validation verdicts
			// (each failure playing the writer onFail), then checks the
			// counters: attempts, failures and fallbacks it implies.
			step := func(name string, script []bool, onFail func(), read func()) {
				t.Helper()
				lk.script, lk.onFail = script, onFail
				read()
				if len(lk.script) != 0 {
					t.Fatalf("%s: %d scripted verdicts unused", name, len(lk.script))
				}
				want.Optimistic += uint64(len(script))
				for _, ok := range script {
					if !ok {
						want.ValidationFailures++
					}
				}
				if len(script) > 0 && !script[len(script)-1] {
					want.Fallbacks++
					wantAcquires++
				}
				if got := kv.OCCStats()[0]; got != want {
					t.Fatalf("%s: OCCStats = %+v, want %+v", name, got, want)
				}
				if lk.reads != int(want.Optimistic) || lk.acquires != wantAcquires {
					t.Fatalf("%s: ReadSeq calls %d, acquisitions %d; want %d, %d",
						name, lk.reads, lk.acquires, want.Optimistic, wantAcquires)
				}
			}
			get := func(s *KVSession, key []byte, wantV string, wantOK bool) func() {
				return func() {
					t.Helper()
					v, ok := s.Get(p0, key)
					if ok != wantOK || string(v) != wantV {
						t.Fatalf("Get(%s) = %q,%v want %q,%v", key, v, ok, wantV, wantOK)
					}
				}
			}
			scan := func(s *KVSession, wantKV ...string) func() {
				return func() {
					t.Helper()
					var got []string
					s.Scan(p0, kvstore.Key(0), nil, func(k, v []byte) bool {
						got = append(got, string(k)+"="+string(v))
						return true
					})
					if fmt.Sprint(got) != fmt.Sprint(wantKV) {
						t.Fatalf("Scan = %v, want %v", got, wantKV)
					}
				}
			}
			kvs := func(k []byte, v string) string { return string(k) + "=" + v }
			put := func(k []byte, v string) func() { return func() { db.Put(k, []byte(v)) } }
			n := 0
			bump := func() { n++; db.Put(k1, []byte(fmt.Sprint("v", n))) }
			// fails returns a script of f failed verdicts, then a success
			// when ok is set.
			fails := func(f int, ok bool) []bool {
				script := make([]bool, f, f+1)
				if ok {
					script = append(script, true)
				}
				return script
			}

			// A retried read serves the attempt that validated.
			step("get retry", fails(1, true), put(k1, "new"), get(s1, k1, "new", true))
			step("get retry miss", fails(1, true), put(k1, "newer"), get(s1, k2, "", false))
			step("scan retry", fails(2, true), put(k2, "x"), scan(s1, kvs(k1, "newer"), kvs(k2, "x")))
			// Eight failed validations fall back to the lock once.
			step("get fallback", fails(attempts, false), bump, get(s1, k1, fmt.Sprint("v", attempts), true))
			// The read after a fallback again gets eight attempts: no state
			// carries over from one read to the next.
			step("get after fallback", fails(attempts-1, true), bump, get(s1, k1, fmt.Sprint("v", 2*attempts-1), true))
			step("fallback after fallback", fails(attempts, false), bump, get(s1, k1, fmt.Sprint("v", 3*attempts-1), true))
			// A fallen-back scan returns the locked read, each key once:
			// every failed attempt puts one more key.
			added := 0
			grow := func() { added++; db.Put(kvstore.Key(2+added), []byte("y")) }
			wantScan := []string{kvs(k1, fmt.Sprint("v", n)), kvs(k2, "x")}
			for i := 1; i <= attempts; i++ {
				wantScan = append(wantScan, kvs(kvstore.Key(2+i), "y"))
			}
			step("scan fallback", fails(attempts, false), grow, scan(s1, wantScan...))
			// A second session's reads add to the same shard's counters.
			step("second session retry", fails(1, true), put(k2, "z"), get(s2, k2, "z", true))
			wantScan[1] = kvs(k2, "z")
			step("second session clean scan", fails(0, true), nil, scan(s2, wantScan...))
			step("second session fallback", fails(attempts, false), bump, get(s2, k1, fmt.Sprint("v", n+attempts), true))
			for i, s := range []*KVSession{s1, s2} {
				if s.s.occ[0] == (OCCShardStats{}) {
					t.Fatalf("session %d counted no reads", i+1)
				}
			}
		})
	}
}

// TestNoTraceZeroAllocs pins Get at zero heap allocations — the same
// guarantee the memsim execution core pins for its uninstrumented hot loop.
// On seqlock shards the optimistic loop (shard routing, ReadSeq, unlocked
// layer-merge read, validation, counter updates) must not allocate; on
// pessimistic shards neither may the locked read, exclusive (tkt) or shared
// (rwlock). The read closure Get hands to Session.OptimisticAt does not
// escape, so it lives on the stack either way.
func TestNoTraceZeroAllocs(t *testing.T) {
	zeroAllocGets := func(t *testing.T, kv *KV) {
		t.Helper()
		s := kv.NewSession()
		val := bytes.Repeat([]byte("x"), 40)
		for i := 0; i < 300; i++ {
			s.Put(p0, kvstore.Key(i), val)
		}
		s.Flush(p0) // exercise the run (SSTable) lookup path too
		keys := make([][]byte, 300)
		for i := range keys {
			keys[i] = kvstore.Key(i)
		}
		var i int
		allocs := testing.AllocsPerRun(2000, func() {
			if _, ok := s.Get(p0, keys[i%300]); !ok {
				t.Fatal("preloaded key missing")
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("Get allocates %.1f per op, want 0", allocs)
		}
	}
	t.Run("occ-get", func(t *testing.T) { zeroAllocGets(t, openSeqSharded(4, 0)) })
	t.Run("pessimistic-get", func(t *testing.T) {
		m := topo.Armv8Server()
		for _, lc := range []struct {
			name string
			new  func() lockapi.Lock
		}{
			{"tkt", func() lockapi.Lock { return locks.NewTicket() }},
			{"rwlock", func() lockapi.Lock { return rwlock.New(m, topo.CacheGroup, locks.NewMCS()) }},
		} {
			t.Run(lc.name, func(t *testing.T) {
				zeroAllocGets(t, OpenKV(KVOptions{
					Shards:  4,
					NewLock: func(int) lockapi.Lock { return lc.new() },
					Shard:   kvstore.Options{MemtableBytes: 400, MaxRuns: 2, Seed: 11},
				}))
			})
		}
	})
}
