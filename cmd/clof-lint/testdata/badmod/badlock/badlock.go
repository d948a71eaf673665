// Package badlock is a deliberately defective lock that trips every
// clof-lint analyzer at least once; the e2e test asserts the driver exits
// nonzero on this module and names every analyzer.
package badlock

import (
	"sync/atomic"

	"badmod/lockapi"
)

// Lock is a test-and-set lock with every discipline violation at once.
type Lock struct {
	word  lockapi.Cell
	stats uint64
}

// Acquire polls with a Relaxed entry guard (orderpolicy) and never issues
// an Acquire barrier (orderpolicy's missing-barrier check fires on the
// declaration).
func (l *Lock) Acquire(p lockapi.Proc) {
	for p.Load(&l.word, lockapi.Relaxed) == 1 {
	}
	for !p.CAS(&l.word, 0, 1, lockapi.Relaxed) {
	}
	atomic.AddUint64(&l.stats, 1)
}

// Release unlocks with a Relaxed store: the missing release barrier.
func (l *Lock) Release(p lockapi.Proc) {
	p.Store(&l.word, 0, lockapi.Relaxed)
}

// Snapshot reads stats plainly while Acquire updates it atomically
// (atomicdiscipline).
func (l *Lock) Snapshot() uint64 { return l.stats }
