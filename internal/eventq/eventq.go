// Package eventq implements the time-ordered event queue at the heart of the
// discrete-event simulator: a cached-min 4-ary min-heap ordered by
// (time, sequence). The sequence number makes the pop order total and
// therefore the whole simulation deterministic even when events share a
// timestamp.
//
// Two properties matter for the simulator's run-ahead fast path
// (internal/memsim): MinTime is a single field read, because the running
// virtual CPU consults it after *every* simulated operation to decide
// whether it may keep executing inline; and PushPop requeues the running
// virtual CPU and takes the next grant in one step, with at most one
// sift-down of the 4-ary heap, whose shallower tree halves that sift's
// pointer-chasing relative to a binary heap.
package eventq

// shrinkFloor is the smallest backing-array capacity Pop will shrink to.
// Steady-state queues (one entry per virtual CPU) never reach it, so the
// shrink path costs nothing on the hot loop; only sweeps that ballooned the
// queue (chaos wake storms) pay a copy on the way back down.
const shrinkFloor = 1024

// Queue is a deterministic min-priority queue of values with int64
// timestamps. The zero value is an empty, ready-to-use queue.
//
// The minimum entry is cached outside the heap in head: MinTime never
// touches the backing array, and a Push that supersedes the current
// minimum swaps with the cache instead of sifting the whole tree.
type Queue[T any] struct {
	head    entry[T]
	hasHead bool
	items   []entry[T] // 4-ary heap of everything except head
	seq     uint64
}

type entry[T any] struct {
	time int64
	seq  uint64
	val  T
}

func (e entry[T]) before(o entry[T]) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int {
	n := len(q.items)
	if q.hasHead {
		n++
	}
	return n
}

// Push enqueues val at the given virtual time. Events with equal times pop
// in Push order.
func (q *Queue[T]) Push(time int64, val T) {
	q.seq++
	e := entry[T]{time: time, seq: q.seq, val: val}
	if !q.hasHead {
		q.head = e
		q.hasHead = true
		return
	}
	if e.before(q.head) {
		e, q.head = q.head, e
	}
	q.heapPush(e)
}

// MinTime returns the earliest event's time, or ok=false when empty. It is
// the simulator fast path's per-operation check and compiles to a pair of
// field reads.
func (q *Queue[T]) MinTime() (int64, bool) {
	return q.head.time, q.hasHead
}

// Pop removes and returns the earliest event. The boolean is false if the
// queue is empty.
func (q *Queue[T]) Pop() (int64, T, bool) {
	if !q.hasHead {
		var zero T
		return 0, zero, false
	}
	top := q.head
	if len(q.items) > 0 {
		q.head = q.heapPop()
	} else {
		q.hasHead = false
		var zero entry[T]
		q.head = zero
	}
	return top.time, top.val, true
}

// PushPop pushes val at the given time and then pops the earliest event:
// it returns exactly what Push followed by Pop would, consumes the same
// sequence number and leaves the same heap behind, but it sifts at most
// once. A pushed event earlier than every queued one is returned
// without touching the queue, and one earlier than the heap's minimum
// replaces the popped head without touching the heap. On a time tie the
// queued event wins: it was pushed earlier and holds the smaller sequence
// number.
func (q *Queue[T]) PushPop(time int64, val T) (int64, T) {
	q.seq++
	e := entry[T]{time: time, seq: q.seq, val: val}
	if !q.hasHead || e.before(q.head) {
		return time, val
	}
	top := q.head
	if len(q.items) == 0 || e.before(q.items[0]) {
		q.head = e
	} else {
		q.head = q.items[0]
		q.items[0] = e
		q.down(0)
	}
	return top.time, top.val
}

// heapPush inserts e into the 4-ary heap (not the head cache).
func (q *Queue[T]) heapPush(e entry[T]) {
	q.items = append(q.items, e)
	q.up(len(q.items) - 1)
}

// heapPop removes the heap's minimum (the queue's second-earliest event).
// When the backing array is large and three-quarters empty it is reallocated
// at half size, so one chaotic wake storm does not pin its high-water-mark
// allocation for the rest of a sweep.
func (q *Queue[T]) heapPop() entry[T] {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	var zero entry[T]
	q.items[last] = zero
	q.items = q.items[:last]
	if len(q.items) > 0 {
		q.down(0)
	}
	if c := cap(q.items); c > shrinkFloor && len(q.items) < c/4 {
		shrunk := make([]entry[T], len(q.items), c/2)
		copy(shrunk, q.items)
		q.items = shrunk
	}
	return top
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !q.items[i].before(q.items[parent]) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		smallest := i
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if q.items[c].before(q.items[smallest]) {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
