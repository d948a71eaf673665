package lockapi

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOrderString(t *testing.T) {
	want := map[Order]string{
		Relaxed: "rlx", Acquire: "acq", Release: "rel",
		AcqRel: "acq_rel", SeqCst: "seq_cst",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Order(%d).String() = %q, want %q", o, o.String(), s)
		}
	}
	if Order(99).String() != "order(?)" {
		t.Errorf("invalid order string = %q", Order(99).String())
	}
}

func TestNativeProcBasicOps(t *testing.T) {
	p := NewNativeProc(7)
	if p.ID() != 7 {
		t.Fatalf("ID() = %d, want 7", p.ID())
	}
	var c Cell
	c.Init(10)
	if got := p.Load(&c, Acquire); got != 10 {
		t.Errorf("Load = %d, want 10", got)
	}
	p.Store(&c, 20, Release)
	if got := p.Load(&c, Relaxed); got != 20 {
		t.Errorf("Load after Store = %d, want 20", got)
	}
	if !p.CAS(&c, 20, 30, AcqRel) {
		t.Error("CAS(20->30) failed")
	}
	if p.CAS(&c, 20, 40, AcqRel) {
		t.Error("CAS with stale expected value succeeded")
	}
	if got := p.Add(&c, 5, AcqRel); got != 35 {
		t.Errorf("Add returned %d, want new value 35", got)
	}
	if got := p.Swap(&c, 100, AcqRel); got != 35 {
		t.Errorf("Swap returned %d, want old value 35", got)
	}
	if got := p.Load(&c, SeqCst); got != 100 {
		t.Errorf("final value = %d, want 100", got)
	}
	p.Fence(SeqCst) // must not panic
}

func TestNativeProcSpinYields(t *testing.T) {
	// Spin must not block forever and must be callable many times.
	p := NewNativeProc(0)
	for i := 0; i < 1000; i++ {
		p.Spin()
	}
}

// TestNativeAddConcurrent checks that Add through the Proc interface is
// linearizable the way a counter expects.
func TestNativeAddConcurrent(t *testing.T) {
	var c Cell
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := NewNativeProc(id)
			for i := 0; i < per; i++ {
				p.Add(&c, 1, AcqRel)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Raw().Load(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
}

// TestCellArithmetic property: Add acts as modular uint64 addition.
func TestCellArithmetic(t *testing.T) {
	p := NewNativeProc(0)
	f := func(init, delta uint64) bool {
		var c Cell
		c.Init(init)
		return p.Add(&c, delta, Relaxed) == init+delta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColocate(t *testing.T) {
	var a, b, c, d Cell
	if a.LineSlot() != a.LineSlot() {
		t.Error("a lone cell's slot must be stable")
	}
	if a.LineSlot() == b.LineSlot() {
		t.Error("two lone cells must not share a slot")
	}
	lone := a.LineSlot()
	Colocate(&a, &b)
	if a.LineSlot() != b.LineSlot() {
		t.Error("colocated cells must share a slot")
	}
	if a.LineSlot() != lone {
		t.Error("the first colocated cell must keep its own line")
	}
	// Joining an existing group keeps one shared slot.
	Colocate(&a, &c)
	if c.LineSlot() != b.LineSlot() {
		t.Error("joining a group must adopt its slot")
	}
	if d.LineSlot() == a.LineSlot() {
		t.Error("independent cell joined a group")
	}
	Colocate() // no-op, must not panic
}

// A Cell stays one word plus one line pointer, and native use allocates
// no line: only LineSlot and Colocate do.
func TestCellLayout(t *testing.T) {
	var c Cell
	if got := unsafe.Sizeof(c); got != 16 {
		t.Errorf("Cell is %d bytes, want 16", got)
	}
	p := NewNativeProc(0)
	p.Store(&c, 1, Release)
	p.Add(&c, 1, AcqRel)
	p.CAS(&c, 2, 3, SeqCst)
	p.Swap(&c, 4, SeqCst)
	if p.Load(&c, Acquire) != 4 || c.line != nil {
		t.Error("native operations must leave the cell without a line slot")
	}
}
