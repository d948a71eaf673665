package lockapi

// This file is the lock-protocol annotation surface of the observability
// layer (internal/obs, DESIGN.md S29): a driver that calls a lock's Acquire
// and Release reports the acquire-start / acquired / released edges around
// those calls to an optional Observer, so consumers can reconstruct
// acquisition latency, handover distance, and fairness without guessing
// from the raw memory-operation stream. Locks themselves carry no observer
// code: Acquire returns exactly when the lock is held, so the call
// boundaries are the protocol edges, for a basic lock and a composition
// alike.
//
// The two drivers are workload.Run (one lock) and store.Router (one lock
// per shard, exclusive path only). Their off path is one nil check per
// edge — no allocation, no Proc operation, no virtual-time charge on any
// backend.

// Observer receives lock-protocol edges from a driver. All three callbacks
// run on the acquiring/releasing thread, after the corresponding protocol
// step logically happened; they must not touch the lock and must not call
// Proc memory operations (they would perturb the measured run).
//
// A successful TryAcquire reports AcquireStart and Acquired back to back at
// the success instant (a trylock never waits); a failed one reports
// nothing, so acquired and released edge counts stay balanced.
//
// Backends that expose virtual time do so via an optional
// `interface{ Time() int64 }` on their Proc (memsim.Proc does); observers
// that need timestamps assert for it and fall back gracefully.
type Observer interface {
	// AcquireStart marks the entry into Acquire, before any protocol step.
	AcquireStart(p Proc)
	// Acquired marks the instant the lock is held by the caller.
	Acquired(p Proc)
	// Released marks the completion of Release.
	Released(p Proc)
}
