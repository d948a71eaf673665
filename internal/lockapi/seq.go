package lockapi

// This file defines the optimistic-read (seqlock) capability surface used by
// the sharded store's OCC fast path (internal/store, DESIGN.md S33). A
// SeqReader exposes a version word that writers advance around their critical
// sections: odd while a writer is inside, even otherwise, +2 per completed
// write. Readers never touch the lock — they sample the version, read the
// protected data with plain loads, and validate that the version is unchanged
// and even; a failed validation means the data may be torn and must be
// discarded.
//
// The fence discipline is the load-bearing part, and it is what
// internal/mcheck's StoreProgram verifies under WMM, on the store's own
// read loop (including a seeded fenceless variant that the checker must
// catch):
//
//   - ReadSeq loads the version with Acquire order, so the data reads that
//     follow cannot observe values older than the sampled version.
//   - ReadValidate issues an Acquire fence *before* re-reading the version,
//     so the data reads that precede it cannot be satisfied after the
//     re-read. Without that fence a stale version re-read can certify a torn
//     data read — the exact bug the seeded mcheck variant plants.
//   - Writers bump the version with an AcqRel RMW before their first data
//     write and a Release RMW after their last, so the odd window brackets
//     every store.
//
// Consumers (internal/store's Session.OptimisticAt) must
// treat any value read between ReadSeq and a failed ReadValidate as garbage:
// it may be torn, and it must not escape. mcheck.StoreProgram checks that on
// the store's own read loop, and a ReadValidate that certifies every
// snapshot lets a torn one escape there (the always-valid row of
// mcheck's TestSeqlockMissingReadFenceCaught).

// SeqReader is implemented by locks that publish a writer version word for
// optimistic (validated) reads — in this repo, every lock built by
// seqlock.Wrap (the catalog's `seq:` family). The protocol for a reader is:
//
//	s := l.ReadSeq(p)          // waits out in-flight writers
//	... plain (Relaxed) data reads ...
//	if l.ReadValidate(p, s) {  // acquire fence + version re-check
//	    // the data reads form a consistent snapshot
//	} else {
//	    // torn: discard everything and retry (or fall back to Acquire)
//	}
//
// Shared (RWLocker) acquisitions do not advance the version: they exclude
// writers, so optimistic readers may overlap them freely.
type SeqReader interface {
	// ReadSeq returns an even version sample, spinning past any in-flight
	// writer (odd version). The load carries Acquire order.
	ReadSeq(p Proc) uint64
	// ReadValidate reports whether the version still equals s, i.e. no
	// writer entered since ReadSeq returned s. It issues an Acquire fence
	// before the re-read so preceding data loads cannot sink past it.
	ReadValidate(p Proc, s uint64) bool
}
