// Package store is the atomicdiscipline memsim-file corpus: its path ends
// in internal/store/store.go, a file that runs on the simulator, so a
// sync/atomic import there is rejected however the atomics are used.
package store

import "sync/atomic" // want "runs on memsim"

type counters struct {
	reads atomic.Uint64
}

func (c *counters) read() { c.reads.Add(1) }
