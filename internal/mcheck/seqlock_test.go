package mcheck

import (
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/seqlock"
	"github.com/clof-go/clof/internal/topo"
)

// seqTkt builds StoreProgram's seq:tkt shard lock.
func seqTkt() lockapi.Lock { return seqlock.Wrap(locks.NewTicket()) }

// noFenceProc is a checker Proc whose Fence does nothing.
type noFenceProc struct{ *Proc }

func (noFenceProc) Fence(lockapi.Order) {}

// fenceless is a seq: lock whose ReadValidate runs the shipped one on a
// noFenceProc: the classic seqlock reader bug, where the data loads may be
// satisfied after the version re-read, so a stale even version can certify
// a torn snapshot. Everything else is the embedded lock's.
type fenceless struct{ *seqlock.Lock }

func (l fenceless) ReadValidate(p lockapi.Proc, s uint64) bool {
	return l.Lock.ReadValidate(noFenceProc{p.(*Proc)}, s)
}

// withoutReadFence builds mk's seq: lock with its ReadValidate fence
// deleted (fenceless).
func withoutReadFence(mk func() lockapi.Lock) func() lockapi.Lock {
	return func() lockapi.Lock { return fenceless{mk().(*seqlock.Lock)} }
}

// alwaysValid is a seq: lock whose ReadValidate certifies every snapshot:
// the reader never re-checks the version, so a snapshot that overlapped a
// writer escapes unvalidated. Everything else is the embedded lock's.
type alwaysValid struct{ *seqlock.Lock }

func (alwaysValid) ReadValidate(lockapi.Proc, uint64) bool { return true }

// unvalidatedSeqTkt builds StoreProgram's seq:tkt shard lock with
// ReadValidate replaced by alwaysValid's.
func unvalidatedSeqTkt() lockapi.Lock {
	return alwaysValid{seqTkt().(*seqlock.Lock)}
}

// seqCLoF builds a seq: lock over the 2-level tkt-tkt CLoF composition on
// VerifyMachine, InductionProgram's lock.
func seqCLoF() func() lockapi.Lock {
	h := topo.MustHierarchy(VerifyMachine(), topo.CacheGroup, topo.System)
	comp := clof.Composition{locks.MustType("tkt"), locks.MustType("tkt")}
	return func() lockapi.Lock {
		return seqlock.Wrap(clof.Must(h, comp, clof.WithThreshold(2)))
	}
}

// checkStore checks StoreProgram and pins its state count.
func checkStore(t *testing.T, name string, readers, shards int, mk func() lockapi.Lock, cfg Config, states int) Result {
	t.Helper()
	res := Check(StoreProgram(name, readers, shards, mk), cfg)
	t.Logf("%s %dx%d: ok=%v %q, %d states, %d executions", name, readers, shards, res.OK, res.Violation, res.States, res.Executions)
	if res.States != states {
		t.Errorf("%s %dx%d: %d states, want %d", name, readers, shards, res.States, states)
	}
	return res
}

// TestSeqlockVerifiedSC: the router's optimistic read over seq:tkt, two
// readers of one shard, under SC (loads always current) — a smoke baseline
// for the WMM runs below.
func TestSeqlockVerifiedSC(t *testing.T) {
	if res := checkStore(t, "seq:tkt", 2, 1, seqTkt, Config{Mode: SC}, 21046); !res.OK {
		t.Fatalf("SC: %s (witness %v)", res.Violation, res.Witness)
	}
}

// TestSeqlockVerifiedWMM: the acceptance check — Session.OptimisticAt over
// intact seq: locks under WMM with the stale-load relaxation on. Every
// snapshot a validation certifies must be consistent even when Relaxed
// loads can return the reader's last-seen values. Two shapes per lock: two
// readers of one shard (1 writer + 2 readers), and one reader visiting two
// shards with one OptimisticAt each, as a range scan does. The seq:clof
// shapes run under WMM+StaleLoads only, whose search covers every SC and
// TSO schedule.
func TestSeqlockVerifiedWMM(t *testing.T) {
	cfg := Config{Mode: WMM, StaleLoads: true}
	for _, c := range []struct {
		name            string
		mk              func() lockapi.Lock
		readers, shards int
		states          int
	}{
		{"seq:tkt", seqTkt, 2, 1, 28575},
		{"seq:tkt", seqTkt, 1, 2, 14365},
		{"seq:clof:tkt-tkt", seqCLoF(), 2, 1, 129945},
		{"seq:clof:tkt-tkt", seqCLoF(), 1, 2, 67366},
	} {
		if res := checkStore(t, c.name, c.readers, c.shards, c.mk, cfg, c.states); !res.OK {
			t.Fatalf("%s %dx%d WMM+stale: %s (witness %v, truncated=%v)",
				c.name, c.readers, c.shards, res.Violation, res.Witness, res.Truncated)
		}
	}
}

// TestSeqlockMissingReadFenceCaught: the seeded bug — ReadValidate without
// its Acquire fence — MUST be reported on the router's read path under
// WMM+StaleLoads, for both locks and both shapes: the stale version re-read
// certifies a torn snapshot and the reader's assertion fires. This is the
// negative result that makes the positive one above meaningful. The last
// row drops validation altogether (alwaysValid), so a snapshot escapes
// uncertified, against lockapi.SeqReader's contract, and the same
// assertion fires.
func TestSeqlockMissingReadFenceCaught(t *testing.T) {
	cfg := Config{Mode: WMM, StaleLoads: true}
	for _, c := range []struct {
		name            string
		mk              func() lockapi.Lock
		readers, shards int
		states          int
	}{
		{"seq:tkt", withoutReadFence(seqTkt), 2, 1, 771},
		{"seq:tkt", withoutReadFence(seqTkt), 1, 2, 143},
		{"seq:clof:tkt-tkt", withoutReadFence(seqCLoF()), 2, 1, 2186},
		{"seq:clof:tkt-tkt", withoutReadFence(seqCLoF()), 1, 2, 301},
		{"seq:tkt/always-valid", unvalidatedSeqTkt, 1, 1, 47},
	} {
		res := checkStore(t, c.name, c.readers, c.shards, c.mk, cfg, c.states)
		if res.OK || !strings.Contains(res.Violation, "torn snapshot") {
			t.Fatalf("%s %dx%d: missing read fence not caught as a torn snapshot: %q (truncated=%v)",
				c.name, c.readers, c.shards, res.Violation, res.Truncated)
		}
	}
}

// TestSeqlockFenceBugInvisibleWithoutStaleLoads pins why StaleLoads exists:
// under plain WMM (store reordering only) the fenceless variant is
// indistinguishable from the correct one — the bug is a load observing the
// past, which store buffers cannot express. A model-strength regression
// that started "verifying" the bug away would break the Caught test above;
// this one breaks if someone makes plain WMM claim the catch.
func TestSeqlockFenceBugInvisibleWithoutStaleLoads(t *testing.T) {
	if res := checkStore(t, "seq:tkt", 2, 1, withoutReadFence(seqTkt), Config{Mode: WMM}, 14553); !res.OK {
		t.Fatalf("plain WMM unexpectedly reports %q — update the model notes in mcheck.go", res.Violation)
	}
}

// TestStaleLoadCoherence: a thread that already observed a value never
// reads an older one — the stale fork only offers the thread's last-seen
// value, so two back-to-back reads r1, r2 of a monotonically bumped cell
// must satisfy r2 >= r1.
func TestStaleLoadCoherence(t *testing.T) {
	prog := corrProgram()
	res := Check(prog, Config{Mode: WMM, StaleLoads: true})
	if !res.OK {
		t.Fatalf("CoRR violated: %s (witness %v)", res.Violation, res.Witness)
	}
}

// corrProgram is the CoRR litmus shape: one thread bumps x through 1 then
// 2; another reads x twice with Relaxed loads and asserts monotonicity.
func corrProgram() Program {
	return Program{
		Name: "corr-relaxed",
		Make: func() []func(p *Proc) {
			x := &lockapi.Cell{}
			return []func(p *Proc){
				func(p *Proc) {
					p.Store(x, 1, lockapi.Relaxed)
					p.Store(x, 2, lockapi.Relaxed)
				},
				func(p *Proc) {
					r1 := p.Load(x, lockapi.Relaxed)
					r2 := p.Load(x, lockapi.Relaxed)
					p.Assert(r2 >= r1, "read went backwards in coherence order")
				},
			}
		},
	}
}
