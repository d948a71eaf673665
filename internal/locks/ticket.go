package locks

import (
	"github.com/clof-go/clof/internal/lockapi"
)

// Ticket is the classic fair Ticketlock (§2.1): a thread takes a ticket with
// fetch-and-add and waits for the grant counter to reach it. All waiters spin
// on the single grant word (global spinning), so every release invalidates
// every waiter — cheap at low contention, expensive at high contention.
type Ticket struct {
	ticket lockapi.Cell
	grant  lockapi.Cell
}

// NewTicket returns an unheld Ticketlock. The two counters share a cache
// line, as in the classic two-field struct: every arriving fetch-and-add
// therefore disturbs the grant spinners — part of why Ticketlock degrades
// under contention (Fig. 3).
func NewTicket() *Ticket {
	l := &Ticket{}
	lockapi.Colocate(&l.ticket, &l.grant)
	return l
}

// NewCtx implements lockapi.Lock; Ticketlock needs no context.
func (l *Ticket) NewCtx() lockapi.Ctx { return nil }

// Acquire implements lockapi.Lock.
func (l *Ticket) Acquire(p lockapi.Proc, _ lockapi.Ctx) {
	// Add returns the new value; our ticket is the pre-increment value.
	t := p.Add(&l.ticket, 1, lockapi.Relaxed) - 1
	for p.Load(&l.grant, lockapi.Acquire) != t {
		p.Spin()
	}
}

// TryAcquire implements lockapi.TryLocker: claim the next ticket only if the
// lock looks free, with a CAS so no ticket is consumed on failure. The
// ticket is read before the grant: grant cannot pass an unclaimed ticket, so
// t==g and a successful CAS on ticket t together imply we are the owner.
func (l *Ticket) TryAcquire(p lockapi.Proc, _ lockapi.Ctx) bool {
	t := p.Load(&l.ticket, lockapi.Relaxed)
	g := p.Load(&l.grant, lockapi.Relaxed)
	if t != g {
		return false
	}
	if !p.CAS(&l.ticket, t, t+1, lockapi.Acquire) {
		return false
	}
	return true
}

// Release implements lockapi.Lock. Only the owner writes grant, so a plain
// store of grant+1 would do; the fetch-and-add matches the common
// implementation and is atomic on all backends.
func (l *Ticket) Release(p lockapi.Proc, _ lockapi.Ctx) {
	p.Add(&l.grant, 1, lockapi.Release)
}

// HasWaiters implements lockapi.WaiterDetector (paper §4.1.2): with the lock
// held, grant names the owner's ticket, so waiters exist iff
// ticket > grant+1.
func (l *Ticket) HasWaiters(p lockapi.Proc, _ lockapi.Ctx) bool {
	g := p.Load(&l.grant, lockapi.Relaxed)
	t := p.Load(&l.ticket, lockapi.Relaxed)
	return t > g+1
}

var (
	_ lockapi.Lock           = (*Ticket)(nil)
	_ lockapi.WaiterDetector = (*Ticket)(nil)
	_ lockapi.TryLocker      = (*Ticket)(nil)
)
