package store

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/xrand"
)

// replayOps runs one seeded stream of Put/Get/Scan calls against a
// fresh store on p and returns the transcript of every Get and Scan result.
func replayOps(kv *KV, p lockapi.Proc, seed uint64) []string {
	const keys, ops = 300, 2000
	s := kv.NewSession()
	rng := xrand.New(seed)
	var out []string
	for i := 0; i < ops; i++ {
		k := rng.Intn(keys)
		switch roll := rng.Intn(100); {
		case roll < 50:
			s.Put(p, kvstore.Key(k), []byte(fmt.Sprintf("v%d", i)))
		case roll < 85:
			v, ok := s.Get(p, kvstore.Key(k))
			out = append(out, fmt.Sprintf("get %d = %q %v", k, v, ok))
		default:
			end := kvstore.Key(k + 1 + rng.Intn(40))
			line := fmt.Sprintf("scan %d:", k)
			s.Scan(p, kvstore.Key(k), end, func(key, v []byte) bool {
				line += fmt.Sprintf(" %s=%s", key, v)
				return true
			})
			out = append(out, line)
		}
	}
	return out
}

// TestNativeMatchesMemsim is the cross-substrate differential check: the
// same seeded op stream through OpenKV on a NativeProc and on one memsim
// vCPU must produce identical Get/Scan results and identical OCC counters,
// for shared-mode (rwlock) and optimistic (seq:tkt) shard locks under both
// partitions.
func TestNativeMatchesMemsim(t *testing.T) {
	m := topo.X86Server()
	for _, lock := range []string{"seq:tkt", "rwlock"} {
		e, err := catalog.Lookup(lock)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []struct {
			name      string
			rangeKeys int
		}{{"hash", 0}, {"range", 300}} {
			t.Run(lock+"/"+part.name, func(t *testing.T) {
				open := func() *KV {
					return OpenKV(KVOptions{
						Shards:    4,
						RangeKeys: part.rangeKeys,
						NewLock:   func(int) lockapi.Lock { return e.New(m) },
						Shard:     kvstore.Options{MemtableBytes: 400, MaxRuns: 2, Seed: 11},
					})
				}
				native := open()
				want := replayOps(native, lockapi.NewNativeProc(0), 21)

				simulated := open()
				var got []string
				sim := memsim.New(memsim.Config{Machine: m, Seed: 1})
				sim.Spawn(0, func(p *memsim.Proc) { got = replayOps(simulated, p, 21) })
				if r := sim.Run(0); r.Deadlock {
					t.Fatal("memsim run deadlocked")
				}

				if len(got) != len(want) {
					t.Fatalf("memsim transcript has %d results, native %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("result %d differs:\n native %s\n memsim %s", i, want[i], got[i])
					}
				}
				if n, s := native.OCCStats(), simulated.OCCStats(); !reflect.DeepEqual(n, s) {
					t.Errorf("OCC stats differ: native %+v, memsim %+v", n, s)
				}
			})
		}
	}
}
