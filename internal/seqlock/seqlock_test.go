package seqlock

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/rwlock"
	"github.com/clof-go/clof/internal/topo"
)

// TestVersionProtocol pins the version-word state machine: even when idle,
// odd while a writer is inside, +2 per completed write, and ReadValidate
// failing for any sample that a writer overlapped.
func TestVersionProtocol(t *testing.T) {
	l := Wrap(locks.NewTicket()).(*Lock)
	p := lockapi.NewNativeProc(0)
	c := l.NewCtx()

	s := l.ReadSeq(p)
	if s&1 != 0 {
		t.Fatalf("idle ReadSeq returned odd version %d", s)
	}
	if !l.ReadValidate(p, s) {
		t.Fatal("validation failed with no writer activity")
	}

	l.Acquire(p, c)
	if l.ReadValidate(p, s) {
		t.Fatal("validation passed while a writer holds the lock")
	}
	l.Release(p, c)
	if l.ReadValidate(p, s) {
		t.Fatal("validation passed across a completed write")
	}

	s2 := l.ReadSeq(p)
	if s2 != s+2 {
		t.Fatalf("version advanced %d -> %d across one write, want +2", s, s2)
	}
	if !l.ReadValidate(p, s2) {
		t.Fatal("fresh sample failed validation")
	}
}

// TestTryAcquire pins trylock forwarding: a successful try opens the torn
// window exactly like Acquire, and TrySupported mirrors the inner lock.
func TestTryAcquire(t *testing.T) {
	l := Wrap(locks.NewTicket()).(*Lock)
	p := lockapi.NewNativeProc(0)
	c := l.NewCtx()
	if !l.TrySupported() {
		t.Fatal("seq over ticket lost TrySupported")
	}
	s := l.ReadSeq(p)
	if !l.TryAcquire(p, c) {
		t.Fatal("uncontended TryAcquire failed")
	}
	if l.ReadValidate(p, s) {
		t.Fatal("validation passed while a try-holder is inside")
	}
	l.Release(p, c)
	if got := l.ReadSeq(p); got != s+2 {
		t.Fatalf("try+release advanced version %d -> %d, want +2", s, got)
	}
}

// TestWrapSelectsRWVariant: wrapping a shared-capable lock must preserve
// RWLocker, and shared holds must not advance the version (optimistic
// readers may overlap shared holders).
func TestWrapSelectsRWVariant(t *testing.T) {
	m := topo.X86Server()
	l := Wrap(rwlock.New(m, topo.CacheGroup, locks.NewMCS()))
	rw, ok := l.(lockapi.RWLocker)
	if !ok {
		t.Fatal("seq over rwlock lost RWLocker")
	}
	sr, ok := l.(lockapi.SeqReader)
	if !ok {
		t.Fatal("RW variant lost SeqReader")
	}
	p := lockapi.NewNativeProc(0)
	c := l.NewCtx()
	s := sr.ReadSeq(p)
	rw.AcquireShared(p, c)
	if !sr.ReadValidate(p, s) {
		t.Fatal("shared hold advanced the version")
	}
	rw.ReleaseShared(p, c)

	if _, isRW := Wrap(locks.NewTicket()).(lockapi.RWLocker); isRW {
		t.Fatal("seq over a plain lock grew a phantom RWLocker")
	}
}
