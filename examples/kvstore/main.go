// kvstore: run the LevelDB-style readrandom benchmark natively on a
// one-shard store (internal/store over internal/kvstore) with different DB
// locks — the Go analog of the paper's LD_PRELOAD lock interposition on
// LevelDB (§5.1.2). None of these locks has a shared mode, so every read
// takes the lock exclusively, like LevelDB's global DB mutex.
//
//	go run ./examples/kvstore [-threads N] [-keys N] [-ms N]
//
// Note (DESIGN.md §1): native goroutine numbers reflect the Go scheduler as
// much as the locks; the paper-shaped comparisons live on the simulator
// (cmd/clof-figures). This example shows the real library in real use.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	clof "github.com/clof-go/clof"
	"github.com/clof-go/clof/internal/store"
)

func main() {
	threads := flag.Int("threads", 2*runtime.GOMAXPROCS(0), "reader goroutines")
	keys := flag.Int("keys", 10_000, "preloaded key-space size")
	ms := flag.Int("ms", 200, "measurement duration per lock (milliseconds)")
	flag.Parse()

	h3 := clof.X86Hierarchy3()
	entries := []struct {
		name string
		mk   func() clof.Lock
	}{
		{"ticket", func() clof.Lock { t, _ := clof.LockTypeByName("tkt"); return t.New() }},
		{"mcs", func() clof.Lock { t, _ := clof.LockTypeByName("mcs"); return t.New() }},
		{"cna", func() clof.Lock { return clof.NewCNA(h3.Machine) }},
		{"clof<3> tkt-mcs-mcs", func() clof.Lock { return clof.MustNewLock(h3, "tkt-mcs-mcs") }},
	}

	fmt.Printf("readrandom: %d threads, %d keys, %dms per lock (GOMAXPROCS=%d)\n\n",
		*threads, *keys, *ms, runtime.GOMAXPROCS(0))
	readRandom := store.Mix{Name: "readrandom", ReadPct: 100}
	for _, e := range entries {
		kv := store.OpenKV(store.KVOptions{NewLock: func(int) clof.Lock { return e.mk() }})
		store.PreloadKV(kv, *keys)
		res := store.RunYCSB(kv, store.YCSBOptions{
			Keys:     *keys,
			Threads:  *threads,
			Duration: time.Duration(*ms) * time.Millisecond,
			Mix:      readRandom,
		})
		fmt.Printf("%-22s %8.3f reads/µs  (%d reads, %d misses)\n",
			e.name, res.ThroughputOpsPerUs(), res.Ops, res.Misses)
	}
}
