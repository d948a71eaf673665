package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/clof-go/clof/internal/lockapi"
)

// spanKind names one layer boundary the benchmark times from outside.
type spanKind int8

const (
	kStoreGet spanKind = iota // request root: one KVSession.Get call
	kStorePut                 // request root: one KVSession.Put call
	kSimReq                   // request root: one simulated Acquire..Release cycle
	kReadSeq                  // SeqReader.ReadSeq
	kKVGet                    // optimistic window (ReadSeq return → ReadValidate call), or a read's lock hold
	kValidate                 // SeqReader.ReadValidate
	kAcquire                  // Lock.Acquire
	kKVCS                     // a Put's lock hold (Acquire return → Release call)
	kHold                     // a simulated thread's lock hold
	kRelease                  // Lock.Release
	kGetSelf                  // store.get minus its child spans
	kPutSelf                  // store.put minus its child spans
	nKinds
	noParent spanKind = -1
)

var kindNames = [nKinds]string{
	"store.get", "store.put", "sim.request", "seqlock.read_seq", "kvstore.get",
	"seqlock.validate", "lock.acquire", "kvstore.cs", "lock.hold", "lock.release",
	"store.get.self", "store.put.self",
}

// holdKind is the child span covering the lock hold of a request rooted at r.
func holdKind(r spanKind) spanKind {
	switch r {
	case kStoreGet:
		return kKVGet
	case kStorePut:
		return kKVCS
	}
	return kHold
}

// Span retention: full spans are kept for one request in sampleEvery, up to
// maxKept requests per thread, and written at exit as a Chrome trace.
const (
	sampleEvery = 256
	maxKept     = 1 << 13
)

// span is one kept interval; spans of one request share req, and every
// child names its request's root kind as parent.
type span struct {
	req        uint64
	kind       spanKind
	parent     spanKind
	start, dur int64
	tid        int
	track      int
}

// slot is one thread's tracing state. Only its own thread writes it while a
// phase runs; the benchmark reads it after the phase's threads have ended.
type slot struct {
	tid      int
	open     bool
	keep     bool
	root     spanKind
	req      uint64
	n        uint64
	start    int64
	mark     int64 // hold start, or optimistic-window start
	children int64 // summed durations of the open request's child spans
	hists    [nKinds]*hist
	spans    []span
	kept     int
	track    int
	tr       *tracer
}

// tracer times the requests of one run, one slot per thread. clock reads
// host ns natively and memsim.Proc.Time (virtual ns, free of simulated
// cost) on the simulator. With implicit set, Acquire opens a request when
// none is open — the simulator's loop has no request boundary of its own.
type tracer struct {
	clock    func(lockapi.Proc) int64
	implicit bool
	keep     bool
	slots    []*slot
	tracks   []string
}

func newTracer(threads int, clock func(lockapi.Proc) int64, implicit, keep bool) *tracer {
	tr := &tracer{clock: clock, implicit: implicit, keep: keep, slots: make([]*slot, threads)}
	for i := range tr.slots {
		tr.slots[i] = &slot{tid: i, tr: tr}
	}
	return tr
}

// hostClock reads the monotonic host clock in ns since the tracer's epoch.
func hostClock() func(lockapi.Proc) int64 {
	epoch := time.Now()
	return func(lockapi.Proc) int64 { return int64(time.Since(epoch)) }
}

// virtualClock reads a simulated thread's virtual time; reading it issues
// no simulated operation.
func virtualClock(p lockapi.Proc) int64 { return p.(interface{ Time() int64 }).Time() }

// startTrack labels the spans kept from now on (one track per simulator run
// or native phase) and closes any request a previous run left open.
func (tr *tracer) startTrack(name string) {
	tr.tracks = append(tr.tracks, name)
	for _, s := range tr.slots {
		s.open = false
		s.track = len(tr.tracks) - 1
	}
}

func (s *slot) hist(k spanKind) *hist {
	if s.hists[k] == nil {
		s.hists[k] = &hist{}
	}
	return s.hists[k]
}

func (s *slot) begin(root spanKind, t int64) {
	s.open, s.root, s.start, s.children = true, root, t, 0
	s.n++
	s.req = s.n*uint64(len(s.tr.slots)) + uint64(s.tid)
	s.keep = s.tr.keep && s.n%sampleEvery == 1 && s.kept < maxKept
	if s.keep {
		s.kept++
	}
}

func (s *slot) child(k spanKind, t0, t1 int64) {
	d := t1 - t0
	s.hist(k).record(d)
	s.children += d
	if s.keep {
		s.spans = append(s.spans, span{req: s.req, kind: k, parent: s.root, start: t0, dur: d, tid: s.tid, track: s.track})
	}
}

func (s *slot) end(t int64) {
	d := t - s.start
	s.hist(s.root).record(d)
	switch s.root {
	case kStoreGet:
		s.hist(kGetSelf).record(d - s.children)
	case kStorePut:
		s.hist(kPutSelf).record(d - s.children)
	}
	if s.keep {
		s.spans = append(s.spans, span{req: s.req, kind: s.root, parent: noParent, start: s.start, dur: d, tid: s.tid, track: s.track})
	}
	s.open = false
}

// begin opens a request on p's slot (called by the native workers).
func (tr *tracer) begin(p lockapi.Proc, root spanKind) {
	tr.slots[p.ID()].begin(root, tr.clock(p))
}

// end closes p's open request.
func (tr *tracer) end(p lockapi.Proc) { tr.slots[p.ID()].end(tr.clock(p)) }

// merged returns kind k's histogram summed over every slot.
func (tr *tracer) merged(k spanKind) *hist {
	var h hist
	for _, s := range tr.slots {
		if s.hists[k] != nil {
			h.merge(s.hists[k])
		}
	}
	return &h
}

// wrap returns l timed by tr. The wrapper forwards exactly the capabilities
// of l that it can time — lockapi.Lock, plus lockapi.SeqReader when l has
// it — and refuses a lock with any other capability the store routes on
// (lockapi.RWLocker): forwarding less would silently move the store onto
// another code path, so tracing would measure a different program.
func wrap(l lockapi.Lock, tr *tracer) (lockapi.Lock, error) {
	if _, ok := l.(lockapi.RWLocker); ok {
		return nil, fmt.Errorf("bench: cannot time %T: its RWLocker capability would be hidden by the timing wrapper", l)
	}
	t := &timedLock{inner: l, tr: tr}
	if sq, ok := l.(lockapi.SeqReader); ok {
		return &timedSeqLock{timedLock: t, seq: sq}, nil
	}
	return t, nil
}

// timedLock times Acquire, the hold, and Release of the lock it wraps.
type timedLock struct {
	inner lockapi.Lock
	tr    *tracer
}

// NewCtx implements lockapi.Lock.
func (w *timedLock) NewCtx() lockapi.Ctx { return w.inner.NewCtx() }

// Acquire implements lockapi.Lock.
func (w *timedLock) Acquire(p lockapi.Proc, c lockapi.Ctx) {
	s := w.tr.slots[p.ID()]
	if !s.open && !w.tr.implicit {
		w.inner.Acquire(p, c)
		return
	}
	t0 := w.tr.clock(p)
	if !s.open {
		s.begin(kSimReq, t0)
	}
	w.inner.Acquire(p, c)
	t1 := w.tr.clock(p)
	s.child(kAcquire, t0, t1)
	s.mark = t1
}

// Release implements lockapi.Lock.
func (w *timedLock) Release(p lockapi.Proc, c lockapi.Ctx) {
	s := w.tr.slots[p.ID()]
	if !s.open {
		w.inner.Release(p, c)
		return
	}
	t0 := w.tr.clock(p)
	s.child(holdKind(s.root), s.mark, t0)
	w.inner.Release(p, c)
	t1 := w.tr.clock(p)
	s.child(kRelease, t0, t1)
	if s.root == kSimReq {
		s.end(t1)
	}
}

// timedSeqLock adds the optimistic-read capability, timing ReadSeq,
// ReadValidate, and the unlocked read between them.
type timedSeqLock struct {
	*timedLock
	seq lockapi.SeqReader
}

// ReadSeq implements lockapi.SeqReader.
func (w *timedSeqLock) ReadSeq(p lockapi.Proc) uint64 {
	s := w.tr.slots[p.ID()]
	if !s.open {
		return w.seq.ReadSeq(p)
	}
	t0 := w.tr.clock(p)
	v := w.seq.ReadSeq(p)
	t1 := w.tr.clock(p)
	s.child(kReadSeq, t0, t1)
	s.mark = t1
	return v
}

// ReadValidate implements lockapi.SeqReader.
func (w *timedSeqLock) ReadValidate(p lockapi.Proc, v uint64) bool {
	s := w.tr.slots[p.ID()]
	if !s.open {
		return w.seq.ReadValidate(p, v)
	}
	t0 := w.tr.clock(p)
	s.child(kKVGet, s.mark, t0)
	ok := w.seq.ReadValidate(p, v)
	s.child(kValidate, t0, w.tr.clock(p))
	return ok
}

// spanSet is the kept spans of one tracer, with their track names.
type spanSet struct {
	process string
	tracks  []string
	spans   []span
}

func (tr *tracer) spanSet(process string) spanSet {
	set := spanSet{process: process, tracks: tr.tracks}
	for _, s := range tr.slots {
		set.spans = append(set.spans, s.spans...)
	}
	return set
}

// traceEvent is one Chrome trace-event record ("X" complete events and "M"
// process-name metadata; timestamps in µs).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the sets as Chrome trace-event JSON, one process
// per (set, track), which Perfetto and chrome://tracing open.
func writeChromeTrace(w io.Writer, sets []spanSet) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	pid := 0
	for _, set := range sets {
		base := pid
		for _, name := range set.tracks {
			pid++
			if err := emit(traceEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": set.process + " " + name}}); err != nil {
				return err
			}
		}
		for _, sp := range set.spans {
			args := map[string]any{"req": sp.req}
			if sp.parent != noParent {
				args["parent"] = kindNames[sp.parent]
			}
			if err := emit(traceEvent{Name: kindNames[sp.kind], Ph: "X", Ts: float64(sp.start) / 1e3,
				Dur: float64(sp.dur) / 1e3, Pid: base + sp.track + 1, Tid: sp.tid, Args: args}); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
