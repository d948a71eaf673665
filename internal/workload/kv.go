package workload

import (
	"fmt"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
)

// This file drives the sharded serving engine's router (internal/store,
// DESIGN.md S32/S33) on the simulator. Routing, the request generator, shard
// locking and the optimistic-read path with its fixed retry budget are the
// store's own code: writes run through Session.ExclusiveAt, reads and scan
// visits through Session.OptimisticAt, whose counters are plain fields of
// each thread's session, so the simulated read path makes no memory access
// memsim does not charge. Only the shard payload is
// simulated — a four-cell record per shard, with the engine's work charged
// as calibrated think time like the LevelDB/Kyoto presets. Everything
// derives from KVConfig.Seed, so the kv figures are byte-reproducible where
// native goroutine runs are not (DESIGN.md §1).

// KVKeys is the simulated keyspace size: keys are kvstore.Key(0..KVKeys-1).
const KVKeys = 4096

// Calibration of the simulated payload: the in-lock think times of a point
// write, a point read, and each shard a scan visits (the LevelDB preset's
// short critical section), and the out-of-lock think time, randomized ±50%.
const (
	kvWriteWork = 450
	kvReadWork  = 300
	kvScanWork  = 600
	kvNCSWork   = 2400
)

// kvShard is one shard's payload: the record a writer bumps cell by cell,
// plus the host-side oracle state the driver checks exclusion against. The
// oracle fields are plain Go variables, not simulated memory, so they never
// change the schedule; memsim runs one vCPU at a time, so they need no
// synchronization.
type kvShard struct {
	record [4]lockapi.Cell
	held   bool   // a writer is inside
	epoch  uint64 // bumped by writers on entry and exit: odd while one is inside
}

// KVConfig parameterizes a simulated sharded serving run.
type KVConfig struct {
	// Machine is the simulated platform.
	Machine *topo.Machine
	// Threads is the serving thread count (placed by topo.Placement).
	Threads int
	// Shards is the shard count (default 1).
	Shards int
	// NewShardLock builds one shard's lock; it is called Shards times. Locks
	// implementing lockapi.RWLocker serve pessimistic reads in shared mode,
	// lockapi.SeqReader locks serve reads optimistically first.
	NewShardLock func() lockapi.Lock
	// Horizon is the virtual duration in nanoseconds.
	Horizon int64
	// Mix is the operation mix (store.Mixes shapes; default store.ReadMostly).
	Mix store.Mix
	// Dist is the key distribution (store.DistUniform/Zipfian/Hotspot;
	// default uniform). Zipfian scatters hot ranks across shards; hotspot
	// concentrates 80% of keys in the first fifth of the keyspace, which
	// under RangePartition becomes a hot shard.
	Dist string
	// RangePartition routes by contiguous key ranges (store.NewPartitioner
	// with the keyspace as rangeKeys); false routes by the store's hash.
	RangePartition bool
	// Seed makes the run reproducible.
	Seed uint64
	// Observer, when non-nil, supplies a per-shard observer: it is attached
	// to shard i with store.Router.Observe, so it receives the edges of
	// every exclusive acquisition of shard i's lock. Shared acquisitions and
	// optimistic reads emit no edges; KVResult's SharedPerShard carries the
	// shared counts instead.
	Observer func(shard int) lockapi.Observer
}

// KVResult reports a simulated serving run. The embedded Result's
// HandoverLevels stay zero — per-shard handover locality lives in the obs
// collectors attached via KVConfig.Observer. Its ExclusionViolations counts
// writers entering a held shard and exclusive-mode reads that overlapped a
// writer.
type KVResult struct {
	Result
	// PerShard counts lock acquisitions per shard: writes, plus reads and
	// scan visits that ran under the shard lock. Reads served by a validated
	// optimistic attempt acquire no lock and are not counted.
	PerShard []uint64
	// SharedPerShard counts the shared-mode subset of PerShard (0 for locks
	// without a shared path).
	SharedPerShard []uint64
	// OCC is the router's per-shard optimistic-read accounting, summed over
	// the serving threads' sessions once the run ends (store.Router.OCCStats;
	// all zero for locks without a seqlock path).
	OCC []store.OCCShardStats
	// Reads / Updates / RMWs / Scans split completed iterations by kind.
	Reads, Updates, RMWs, Scans uint64
	// SharedViolations counts shared-mode reads that overlapped a writer
	// (must be 0 for a correct reader-writer lock).
	SharedViolations uint64
	// TornReads counts reads a validated optimistic attempt served although
	// it overlapped a writer or saw unequal record cells — a read the seqlock
	// protocol should have discarded (must be 0 for a correct seqlock).
	TornReads uint64
}

// RunKV executes the simulated serving workload; it reports an error on
// deadlock.
func RunKV(cfg KVConfig) (KVResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Mix.Name == "" {
		cfg.Mix = store.ReadMostly
	}
	cpus, err := topo.Placement(cfg.Machine, cfg.Threads)
	if err != nil {
		return KVResult{}, err
	}
	n := len(cpus)
	m := memsim.New(memsim.Config{Machine: cfg.Machine, Seed: cfg.Seed})

	rangeKeys := 0
	if cfg.RangePartition {
		rangeKeys = KVKeys
	}
	part := store.NewPartitioner(cfg.Shards, rangeKeys)
	router := store.NewRouter(part, func(int) lockapi.Lock { return cfg.NewShardLock() },
		func(int) *kvShard { return new(kvShard) })
	shared := make([]bool, cfg.Shards)
	for i := range shared {
		_, shared[i] = router.LockAt(i).(lockapi.RWLocker)
		if cfg.Observer != nil {
			router.Observe(i, cfg.Observer(i))
		}
	}

	res := KVResult{
		Result:         Result{PerThread: make([]uint64, n)},
		PerShard:       make([]uint64, cfg.Shards),
		SharedPerShard: make([]uint64, cfg.Shards),
	}
	for t := 0; t < n; t++ {
		s := router.NewSession()
		m.Spawn(cpus[t], func(p *memsim.Proc) {
			rng := p.Rand()
			kp := store.NewKeyPicker(cfg.Dist, KVKeys, store.ZipfTheta, rng.Split())
			key := make([]byte, 0, kvstore.KeyWidth)
			endKey := make([]byte, 0, kvstore.KeyWidth)

			// write runs under the shard's exclusive lock, counted once the
			// lock is held — like the observer's Acquired edge.
			write := func(i int, sh *kvShard) {
				res.PerShard[i]++
				if sh.held {
					res.ExclusionViolations++
				}
				sh.held = true
				sh.epoch++
				for c := range sh.record {
					p.Add(&sh.record[c], 1, lockapi.Relaxed)
				}
				p.Work(kvWriteWork)
				sh.epoch++
				sh.held = false
			}
			// readRecord is one read attempt. OptimisticAt may run it several
			// times; each run overwrites the observations, so after it
			// returns they describe the attempt that served the read.
			var (
				work   int64     // in-lock think time of the read in flight
				v      [4]uint64 // the record as the attempt loaded it
				e0, e1 uint64    // the shard's writer epoch at entry and exit
			)
			readRecord := func(_ int, sh *kvShard) {
				e0 = sh.epoch
				for c := range v {
					v[c] = p.Load(&sh.record[c], lockapi.Relaxed)
				}
				p.Work(work)
				e1 = sh.epoch
			}
			read := func(i int, w int64) {
				work = w
				optimistic := s.OptimisticAt(p, i, readRecord)
				overlap := e0&1 == 1 || e1 != e0
				switch {
				case optimistic:
					if overlap || v[0] != v[1] || v[1] != v[2] || v[2] != v[3] {
						res.TornReads++
					}
					return
				case shared[i]:
					res.SharedPerShard[i]++
					if overlap {
						res.SharedViolations++
					}
				case overlap:
					res.ExclusionViolations++
				}
				res.PerShard[i]++
			}

			p.Work(1 + rng.Int63n(1000))
			for !p.Expired() {
				k := kp.Next()
				key = kvstore.AppendKey(key[:0], k)
				sh := part.Shard(key)
				switch cfg.Mix.Op(rng.Intn(100)) {
				case store.OpRead:
					read(sh, kvReadWork)
					res.Reads++
				case store.OpUpdate:
					s.ExclusiveAt(p, sh, write)
					res.Updates++
				case store.OpRMW:
					read(sh, kvReadWork)
					s.ExclusiveAt(p, sh, write)
					res.RMWs++
				case store.OpScan:
					// The shards KVSession.Scan visits for the keys [k, end).
					end := min(k+1+rng.Intn(cfg.Mix.ScanLen), KVKeys)
					first, last := router.Span(key, kvstore.AppendKey(endKey[:0], end))
					for i := first; i <= last; i++ {
						read(i, kvScanWork)
					}
					res.Scans++
				}
				p.Work(kvNCSWork/2 + rng.Int63n(kvNCSWork+1))
				res.PerThread[t]++
			}
		})
	}
	r := m.Run(cfg.Horizon)
	if r.Deadlock {
		return KVResult{}, fmt.Errorf("kv workload: deadlock, parked CPUs %v", r.ParkedCPUs)
	}
	for _, c := range res.PerThread {
		res.Total += c
	}
	res.Events = r.Events
	res.Now = r.Now
	res.OCC = router.OCCStats()
	return res, nil
}
