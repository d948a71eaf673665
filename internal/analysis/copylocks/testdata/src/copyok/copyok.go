// Package copyok is the copylocks clean corpus: pointers everywhere,
// composite-literal and new() initialization, and ranging by index.
package copyok

import "github.com/clof-go/clof/internal/lockapi"

type spinLock struct {
	word lockapi.Cell
}

func newSpinLock() *spinLock {
	return &spinLock{}
}

func newSpinLockBuiltin() *spinLock { return new(spinLock) }

func byPointer(l *spinLock) {}

func pointerSlice(ls []*spinLock) {
	for _, l := range ls {
		byPointer(l)
	}
}

func indexRange(ls []spinLock) {
	for i := range ls {
		byPointer(&ls[i])
	}
}

func fieldAccess(l *spinLock, p lockapi.Proc) uint64 {
	return p.Load(&l.word, lockapi.Acquire)
}
