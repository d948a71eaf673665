// Package badrelease is the seeded missing-release-barrier corpus: the
// same defect internal/mcheck's BrokenTicketProgram demonstrates
// dynamically under WMM. orderpolicy must flag both the Relaxed store and
// the barrier-free Release method.
package badrelease

import "github.com/clof-go/clof/internal/lockapi"

type ticket struct {
	ticket, grant lockapi.Cell
}

func (l *ticket) NewCtx() lockapi.Ctx { return nil }

func (l *ticket) Acquire(p lockapi.Proc, _ lockapi.Ctx) {
	t := p.Add(&l.ticket, 1, lockapi.Relaxed) - 1
	for p.Load(&l.grant, lockapi.Acquire) != t {
		p.Spin()
	}
}

func (l *ticket) Release(p lockapi.Proc, _ lockapi.Ctx) { // want "missing release barrier"
	g := p.Load(&l.grant, lockapi.Relaxed)
	p.Store(&l.grant, g+1, lockapi.Relaxed) // want "Relaxed Store on unlock path"
}

// relaxedAcquire never orders its entry: every operation is Relaxed, so the
// critical section can observe pre-lock state. Flagged at the declaration.
type relaxedAcquire struct {
	word lockapi.Cell
}

func (l *relaxedAcquire) NewCtx() lockapi.Ctx { return nil }

func (l *relaxedAcquire) Acquire(p lockapi.Proc, _ lockapi.Ctx) { // want "none with Acquire semantics"
	for p.Swap(&l.word, 1, lockapi.Relaxed) == 1 {
		p.Spin()
	}
}

func (l *relaxedAcquire) Release(p lockapi.Proc, _ lockapi.Ctx) {
	p.Store(&l.word, 0, lockapi.Release)
}

var (
	_ lockapi.Lock = (*ticket)(nil)
	_ lockapi.Lock = (*relaxedAcquire)(nil)
)
