package memsim

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// TestLineStartsColdOnNextMachine runs one lock on two Machines in turn. The
// first run leaves CPU 0 owning the lock's lines; the second must not see
// that: its first access pays a memory fetch, not a hit, and the two runs
// are identical.
func TestLineStartsColdOnNextMachine(t *testing.T) {
	lat := DefaultLatency(topo.X86)
	l := locks.MustType("tkt").New()
	run := func() (TraceEvent, Result, int) {
		var first []TraceEvent
		m := New(Config{Machine: topo.X86Server(), Trace: func(ev TraceEvent) {
			first = append(first, ev)
		}})
		m.Spawn(0, func(p *Proc) {
			ctx := l.NewCtx()
			for i := 0; i < 3; i++ {
				l.Acquire(p, ctx)
				l.Release(p, ctx)
			}
		})
		res := m.Run(0)
		return first[0], res, len(m.lines)
	}
	ev1, res1, lines1 := run()
	ev2, res2, lines2 := run()
	want := lat.MemBase
	if ev1.Op != "load" && ev1.Op != "store" {
		want += lat.RMWBase
	}
	if ev1.Cost != want {
		t.Errorf("first run's first %s costs %d, want %d", ev1.Op, ev1.Cost, want)
	}
	// The lock's counters carry over, so only the values differ.
	if ev2.Cell != ev1.Cell || ev2.Op != ev1.Op || ev2.Cost != ev1.Cost || ev2.Time != ev1.Time {
		t.Errorf("second run's first event %+v, want %+v but for its value (a cold line)", ev2, ev1)
	}
	if res2.Now != res1.Now || res2.Events != res1.Events || lines2 != lines1 {
		t.Errorf("second run (now %d, %d events, %d lines) differs from the first (%d, %d, %d)",
			res2.Now, res2.Events, lines2, res1.Now, res1.Events, lines1)
	}
}

// TestColocatedCellsShareLine checks within one run that two Colocate'd
// cells are one line (a write to one makes a read of the other a hit) and
// that two plain cells are two (the read still fetches from memory).
func TestColocatedCellsShareLine(t *testing.T) {
	lat := DefaultLatency(topo.X86)
	var a, b, c, d lockapi.Cell
	lockapi.Colocate(&a, &b)
	m := New(Config{Machine: topo.X86Server()})
	var sharedRead, plainRead int64
	m.Spawn(0, func(p *Proc) {
		p.Store(&a, 1, lockapi.Relaxed)
		before := p.Time()
		p.Load(&b, lockapi.Relaxed)
		sharedRead = p.Time() - before
		p.Store(&c, 1, lockapi.Relaxed)
		before = p.Time()
		p.Load(&d, lockapi.Relaxed)
		plainRead = p.Time() - before
	})
	m.Run(0)
	if sharedRead != lat.Hit {
		t.Errorf("read of a colocated cell costs %d, want a hit (%d)", sharedRead, lat.Hit)
	}
	if plainRead != lat.MemBase {
		t.Errorf("read of a plain cell costs %d, want a memory fetch (%d)", plainRead, lat.MemBase)
	}
	if len(m.lines) != 3 {
		t.Errorf("the run created %d lines, want 3 (a+b, c, d)", len(m.lines))
	}
}
