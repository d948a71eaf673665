package lockapi

// This file holds the trivial capability surface of the sharded store
// (internal/store): the no-op default shard lock and the shared-acquisition
// (reader) capability interface the store's read paths consult.

// Noop is the no-op Lock: every operation returns immediately and nothing
// is excluded. It is the sharded store's default shard lock
// (store.NewRouter), for single-threaded use. The zero value is ready for
// use.
type Noop struct{}

// NewCtx implements Lock (no context needed).
func (Noop) NewCtx() Ctx { return nil }

// Acquire implements Lock as a no-op.
func (Noop) Acquire(p Proc, _ Ctx) {}

// Release implements Lock as a no-op.
func (Noop) Release(p Proc, _ Ctx) {}

// RWLocker is implemented by locks that additionally support shared (read)
// acquisitions: any number of AcquireShared holders may overlap, but they
// exclude — and are excluded by — the exclusive Acquire/Release path. The
// sharded store (internal/store) routes read-only operations through this
// capability when the configured shard lock provides it, and degrades to the
// exclusive path otherwise.
//
// The Ctx passed to the shared path is the same per-thread context returned
// by NewCtx; implementations that need no reader state ignore it.
type RWLocker interface {
	Lock
	// AcquireShared blocks until the lock is held in shared mode.
	AcquireShared(p Proc, c Ctx)
	// ReleaseShared releases a shared acquisition.
	ReleaseShared(p Proc, c Ctx)
}

var _ Lock = Noop{}
