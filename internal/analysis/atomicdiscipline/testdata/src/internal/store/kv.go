package store

import "sync/atomic"

// kv.go is not on the memsim list: host-side set-up may use sync/atomic.
func claim(next *atomic.Int32) int { return int(next.Add(1)) - 1 }
