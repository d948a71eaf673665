package store

import (
	"sync"
	"time"

	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/xrand"
)

// This file is the YCSB-style workload driver for the sharded LSM: the
// standard serving-benchmark operation mixes (read-mostly, write-heavy,
// read-modify-write, scan) over uniform, Zipfian, or hotspot key
// distributions, run natively on goroutines. The request generator (Mix.Op,
// KeyPicker) is shared with internal/workload's RunKV, which drives this
// package's Router on the simulator — deterministic and per-shard observed —
// where this driver measures the real store on real hardware (with
// DESIGN.md §1's caveat that goroutine numbers reflect the Go scheduler as
// much as the lock).

// Mix is a YCSB-style operation mix; the percentages must sum to 100.
type Mix struct {
	// Name labels the mix in reports ("read-mostly", ...).
	Name string
	// ReadPct / UpdatePct / RMWPct / ScanPct split operations: point reads,
	// point writes, read-modify-writes (a read then a write of the same key,
	// two lock acquisitions like a real serving path), and range scans.
	ReadPct, UpdatePct, RMWPct, ScanPct int
	// ScanLen is the maximum scan length in keys: a scan covers
	// 1+Intn(ScanLen) keys, YCSB workload E style. Required when ScanPct > 0.
	ScanLen int
}

// The standard mixes, named after their YCSB analogs.
var (
	// ReadMostly is YCSB-B: 95% reads, 5% updates — the shape where shared
	// (reader) locks and sharding pay off most.
	ReadMostly = Mix{Name: "read-mostly", ReadPct: 95, UpdatePct: 5}
	// WriteHeavy is YCSB-A: 50% reads, 50% updates.
	WriteHeavy = Mix{Name: "write-heavy", ReadPct: 50, UpdatePct: 50}
	// ReadModifyWrite is YCSB-F: 50% reads, 50% read-modify-writes.
	ReadModifyWrite = Mix{Name: "rmw", ReadPct: 50, RMWPct: 50}
	// ScanHeavy is YCSB-E-flavored: 70% reads, 10% updates, 20% short scans
	// (the mix that exercises the cross-shard merge).
	ScanHeavy = Mix{Name: "scan", ReadPct: 70, UpdatePct: 10, ScanPct: 20, ScanLen: 50}
)

// Mixes lists the standard mixes in sweep order.
func Mixes() []Mix { return []Mix{ReadMostly, WriteHeavy, ReadModifyWrite, ScanHeavy} }

// OpKind is one request type of a Mix.
type OpKind int

// The request types, in the order a Mix's percentages stack.
const (
	OpRead OpKind = iota
	OpUpdate
	OpRMW
	OpScan
)

// Op maps a roll in [0, 100) to the request type the mix assigns it.
func (m Mix) Op(roll int) OpKind {
	switch {
	case roll < m.ReadPct:
		return OpRead
	case roll < m.ReadPct+m.UpdatePct:
		return OpUpdate
	case roll < m.ReadPct+m.UpdatePct+m.RMWPct:
		return OpRMW
	default:
		return OpScan
	}
}

// ZipfTheta is the default Zipfian skew (YCSB's).
const ZipfTheta = 0.99

// Key distributions for YCSBOptions.Dist.
const (
	// DistUniform draws keys uniformly.
	DistUniform = "uniform"
	// DistZipfian draws Zipfian ranks (theta 0.99) scattered across the
	// keyspace by a multiplicative hash, YCSB-style: hot keys exist but are
	// spread over shards.
	DistZipfian = "zipfian"
	// DistHotspot sends 80% of operations to the first 20% of the keyspace —
	// a contiguous hot range, so a range-partitioned store develops hot
	// shards (the skew sharding alone cannot fix).
	DistHotspot = "hotspot"
)

// YCSBOptions configures a native workload run.
type YCSBOptions struct {
	// Keys is the preloaded keyspace size (default 10_000).
	Keys int
	// Threads is the worker goroutine count (default 1).
	Threads int
	// Duration bounds the run in wall time (default 100ms).
	Duration time.Duration
	// Mix is the operation mix (default ReadMostly).
	Mix Mix
	// Dist is the key distribution (default DistUniform).
	Dist string
	// Theta is the Zipfian skew for DistZipfian (default ZipfTheta).
	Theta float64
	// ValueSize is the written value size (default 100, the db_bench value).
	ValueSize int
	// Seed decorrelates per-worker streams.
	Seed uint64
}

// YCSBResult reports a native run.
type YCSBResult struct {
	// Ops counts completed operations (an RMW counts once).
	Ops uint64
	// PerThread is the per-worker split of Ops.
	PerThread []uint64
	// Reads / Updates / RMWs / Scans split Ops by kind; ScannedKeys counts
	// keys the scans visited.
	Reads, Updates, RMWs, Scans uint64
	ScannedKeys                 uint64
	// Misses counts point reads of absent keys (0 on a preloaded keyspace).
	Misses uint64
	// Elapsed is the measured wall time.
	Elapsed time.Duration
}

// ThroughputOpsPerUs returns operations per microsecond of wall time.
func (r YCSBResult) ThroughputOpsPerUs() float64 {
	us := float64(r.Elapsed.Microseconds())
	if us == 0 {
		return 0
	}
	return float64(r.Ops) / us
}

// KeyPicker draws key indices for one worker.
type KeyPicker struct {
	dist string
	keys int
	rng  *xrand.Rand
	zipf *xrand.Zipf
}

// NewKeyPicker returns a picker over [0, keys) drawing from rng with the
// named distribution (Dist* constants; theta is the Zipfian skew).
func NewKeyPicker(dist string, keys int, theta float64, rng *xrand.Rand) *KeyPicker {
	kp := &KeyPicker{dist: dist, keys: keys, rng: rng}
	if dist == DistZipfian {
		kp.zipf = xrand.NewZipf(rng, uint64(keys), theta)
	}
	return kp
}

// Next returns the next key index in [0, keys).
func (kp *KeyPicker) Next() int {
	switch kp.dist {
	case DistZipfian:
		// Scatter ranks with a multiplicative hash so the hot set is spread
		// across the keyspace (and therefore across shards), as YCSB does.
		return int((kp.zipf.Next() * 2654435761) % uint64(kp.keys))
	case DistHotspot:
		hot := kp.keys / 5
		if hot < 1 || hot == kp.keys {
			return kp.rng.Intn(kp.keys)
		}
		if kp.rng.Intn(100) < 80 {
			return kp.rng.Intn(hot)
		}
		return hot + kp.rng.Intn(kp.keys-hot)
	default:
		return kp.rng.Intn(kp.keys)
	}
}

// RunYCSB drives kv with o's workload. The store must be preloaded (e.g.
// PreloadKV with o.Keys).
func RunYCSB(kv *KV, o YCSBOptions) YCSBResult {
	if o.Keys == 0 {
		o.Keys = 10_000
	}
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.Duration == 0 {
		o.Duration = 100 * time.Millisecond
	}
	if o.Mix.Name == "" {
		o.Mix = ReadMostly
	}
	if o.Dist == "" {
		o.Dist = DistUniform
	}
	if o.Theta == 0 {
		o.Theta = ZipfTheta
	}
	if o.ValueSize == 0 {
		o.ValueSize = 100
	}

	sessions := make([]*KVSession, o.Threads)
	for i := range sessions {
		sessions[i] = kv.NewSession()
	}

	res := YCSBResult{PerThread: make([]uint64, o.Threads)}
	var mu sync.Mutex // folds per-worker tallies at the end
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := lockapi.NewNativeProc(id)
			rng := xrand.New(o.Seed + uint64(id)*7919 + 1)
			kp := NewKeyPicker(o.Dist, o.Keys, o.Theta, rng.Split())
			s := sessions[id]
			val := make([]byte, o.ValueSize)
			keyBuf := make([]byte, 0, kvstore.KeyWidth)
			var reads, updates, rmws, scans, scanned, misses uint64
			for {
				select {
				case <-stop:
					mu.Lock()
					res.Reads += reads
					res.Updates += updates
					res.RMWs += rmws
					res.Scans += scans
					res.ScannedKeys += scanned
					res.Misses += misses
					mu.Unlock()
					return
				default:
				}
				k := kp.Next()
				keyBuf = kvstore.AppendKey(keyBuf[:0], k)
				switch o.Mix.Op(rng.Intn(100)) {
				case OpRead:
					if _, ok := s.Get(p, keyBuf); !ok {
						misses++
					}
					reads++
				case OpUpdate:
					s.Put(p, keyBuf, val)
					updates++
				case OpRMW:
					if _, ok := s.Get(p, keyBuf); !ok {
						misses++
					}
					s.Put(p, keyBuf, val)
					rmws++
				case OpScan:
					n := 1 + rng.Intn(o.Mix.ScanLen)
					end := kvstore.Key(min(k+n, o.Keys))
					got := 0
					s.Scan(p, keyBuf, end, func([]byte, []byte) bool {
						got++
						return got < n
					})
					scanned += uint64(got)
					scans++
				}
				res.PerThread[id]++
			}
		}(w)
	}
	time.Sleep(o.Duration)
	close(stop)
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, c := range res.PerThread {
		res.Ops += c
	}
	return res
}
