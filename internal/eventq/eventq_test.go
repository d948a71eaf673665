package eventq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Error("new queue not empty")
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
	if _, ok := q.MinTime(); ok {
		t.Error("MinTime on empty queue returned ok")
	}
}

func TestPopOrder(t *testing.T) {
	var q Queue[string]
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	want := []struct {
		t int64
		v string
	}{{10, "a"}, {20, "b"}, {30, "c"}}
	for _, w := range want {
		tm, v, ok := q.Pop()
		if !ok || tm != w.t || v != w.v {
			t.Fatalf("Pop = (%d,%q,%v), want (%d,%q,true)", tm, v, ok, w.t, w.v)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 100; i++ {
		_, v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("tie-broken pop %d = %d", i, v)
		}
	}
}

func TestMinMatchesPop(t *testing.T) {
	var q Queue[int]
	q.Push(7, 1)
	q.Push(3, 2)
	mt, _ := q.MinTime()
	pt, pv, _ := q.Pop()
	if mt != pt || pv != 2 {
		t.Errorf("MinTime %d, then Pop (%d,%d); want both at 3 with value 2", mt, pt, pv)
	}
}

// TestMinTimeMatchesMin: across a mixed op sequence, MinTime always reports
// the time the next Pop returns.
func TestMinTimeMatchesMin(t *testing.T) {
	var q Queue[int]
	if _, ok := q.MinTime(); ok {
		t.Fatal("MinTime ok on empty queue")
	}
	for i := 0; i < 200; i++ {
		q.Push(int64((i*37)%50), i)
		if i%3 != 0 {
			continue
		}
		mt, mok := q.MinTime()
		pt, pv, pok := q.Pop()
		if mok != pok || mt != pt {
			t.Fatalf("MinTime (%d,%v) disagrees with Pop (%d,%d,%v)", mt, mok, pt, pv, pok)
		}
	}
	for {
		mt, mok := q.MinTime()
		pt, _, pok := q.Pop()
		if mok != pok || mt != pt {
			t.Fatalf("draining: MinTime (%d,%v) disagrees with Pop (%d,%v)", mt, mok, pt, pok)
		}
		if !pok {
			return
		}
	}
}

// Property: popping everything yields times in non-decreasing order and
// preserves the multiset of pushed times.
func TestHeapProperty(t *testing.T) {
	f := func(times []int64) bool {
		var q Queue[int64]
		for _, tm := range times {
			q.Push(tm, tm)
		}
		got := make([]int64, 0, len(times))
		prev := int64(math.MinInt64)
		for q.Len() > 0 {
			tm, v, ok := q.Pop()
			if !ok || tm != v || tm < prev {
				return false
			}
			prev = tm
			got = append(got, tm)
		}
		sorted := append([]int64(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if len(got) != len(sorted) {
			return false
		}
		for i := range got {
			if got[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue[int]
	q.Push(10, 10)
	q.Push(5, 5)
	if _, v, _ := q.Pop(); v != 5 {
		t.Fatal("want 5 first")
	}
	q.Push(1, 1)
	q.Push(20, 20)
	if _, v, _ := q.Pop(); v != 1 {
		t.Fatal("want 1 after push")
	}
	if _, v, _ := q.Pop(); v != 10 {
		t.Fatal("want 10")
	}
	if _, v, _ := q.Pop(); v != 20 {
		t.Fatal("want 20")
	}
}

// TestPopShrinksCapacity: after a wake storm drains, the backing array must
// be given back instead of pinning its high-water mark.
func TestPopShrinksCapacity(t *testing.T) {
	var q Queue[int]
	const n = 1 << 16
	for i := 0; i < n; i++ {
		q.Push(int64(i), i)
	}
	grown := cap(q.items)
	for i := 0; i < n-64; i++ {
		if _, v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop %d = (%d,%v)", i, v, ok)
		}
	}
	if c := cap(q.items); c >= grown/4 {
		t.Errorf("capacity %d retained after draining to 64 entries (grew to %d)", c, grown)
	}
	// Drain the rest; order must survive the shrinks.
	for i := n - 64; i < n; i++ {
		if _, v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("post-shrink pop %d = (%d,%v)", i, v, ok)
		}
	}
}

// TestSmallQueueNeverShrinks: simulator-sized queues (a few dozen entries)
// must never pay a shrink reallocation in steady state.
func TestSmallQueueNeverShrinks(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 128; i++ {
		q.Push(int64(i), i)
	}
	c0 := cap(q.items)
	for i := 0; i < 10000; i++ {
		tm, v, _ := q.Pop()
		q.Push(tm+1000, v)
	}
	if cap(q.items) != c0 {
		t.Errorf("steady-state capacity changed: %d -> %d", c0, cap(q.items))
	}
}

// TestPushPopMatchesPushThenPop is PushPop's differential test. Random
// operation sequences run on two queues at once, PushPop on one and Push
// then Pop on its twin, with occasional plain Pushes and Pops on both.
// Times step from the last popped one by a few units, so most events tie
// with queued ones. Every PushPop must return what the twin's Pop returns,
// and both queues must drain identically at the end.
func TestPushPopMatchesPushThenPop(t *testing.T) {
	for _, size := range []int{0, 1, 2, 5, 64, 5000} {
		rng := rand.New(rand.NewSource(int64(size) + 1))
		var q, twin Queue[int]
		val, last := 0, int64(0)
		next := func() int64 {
			tm := last + rng.Int63n(5) - 1
			if rng.Intn(8) == 0 {
				tm += rng.Int63n(64)
			}
			return tm
		}
		for i := 0; i < size; i++ {
			tm := next()
			q.Push(tm, val)
			twin.Push(tm, val)
			val++
		}
		queuedWonTie := 0
		for i := 0; i < 20_000; i++ {
			switch r := rng.Intn(10); {
			case r < 8:
				tm := next()
				gt, gv := q.PushPop(tm, val)
				twin.Push(tm, val)
				wt, wv, _ := twin.Pop()
				if gt != wt || gv != wv {
					t.Fatalf("size %d, op %d: PushPop(%d, %d) = (%d, %d), Push+Pop = (%d, %d)",
						size, i, tm, val, gt, gv, wt, wv)
				}
				if gt == tm && gv != val {
					queuedWonTie++
				}
				val++
				last = gt
			case r == 8:
				tm := next()
				q.Push(tm, val)
				twin.Push(tm, val)
				val++
			default:
				gt, gv, gok := q.Pop()
				wt, wv, wok := twin.Pop()
				if gt != wt || gv != wv || gok != wok {
					t.Fatalf("size %d, op %d: Pop = (%d, %d, %v), twin's = (%d, %d, %v)",
						size, i, gt, gv, gok, wt, wv, wok)
				}
				if gok {
					last = gt
				}
			}
			gt, gok := q.MinTime()
			wt, wok := twin.MinTime()
			if gt != wt || gok != wok || q.Len() != twin.Len() {
				t.Fatalf("size %d, op %d: MinTime (%d, %v) and Len %d, twin's (%d, %v) and %d",
					size, i, gt, gok, q.Len(), wt, wok, twin.Len())
			}
		}
		if queuedWonTie == 0 {
			t.Fatalf("size %d: no PushPop met a time tie; the test is vacuous", size)
		}
		for n := 0; twin.Len() > 0; n++ {
			gt, gv, _ := q.Pop()
			wt, wv, _ := twin.Pop()
			if gt != wt || gv != wv {
				t.Fatalf("size %d, drain %d: (%d, %d), twin's (%d, %d)", size, n, gt, gv, wt, wv)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("size %d: %d events left after the twin drained", size, q.Len())
		}
	}
}
