package lockapi

// This file is the lock-protocol annotation surface of the observability
// layer (internal/obs, DESIGN.md S29): locks report their acquire-start /
// acquired / released edges to an optional Observer, so consumers can
// reconstruct acquisition latency, handover distance, and fairness without
// guessing from the raw memory-operation stream.
//
// The off path is free by design: an uninstrumented lock carries one nil
// pointer and every edge helper is a single predictable branch — no
// allocation, no Proc operation, no virtual-time charge on any backend
// (memsim's TestNoTraceZeroAllocs covers the guarantee with instrumentation
// compiled in but disabled).

// Observer receives lock-protocol edges from an instrumented lock. All three
// callbacks run on the acquiring/releasing thread, after the corresponding
// protocol step logically happened; they must not touch the lock and must
// not call Proc memory operations (they would perturb the measured run).
//
// Backends that expose virtual time do so via an optional
// `interface{ Time() int64 }` on their Proc (memsim.Proc does); observers
// that need timestamps assert for it and fall back gracefully.
type Observer interface {
	// AcquireStart marks the entry into Acquire, before any protocol step.
	AcquireStart(p Proc)
	// Acquired marks the instant the lock is held by the caller.
	Acquired(p Proc)
	// Released marks the completion of Release.
	Released(p Proc)
}

// Instrumented is implemented by locks with native annotation hooks on
// their grant paths. Instrument must only be called during single-threaded
// setup (like NewCtx); passing nil detaches the observer.
type Instrumented interface {
	Instrument(o Observer)
}

// Probe is the embeddable half of Instrumented: a lock embeds a Probe and
// calls the emit helpers on its grant paths. The zero value is detached and
// the helpers then cost one nil check — the zero-overhead-when-off
// guarantee of the observability layer.
type Probe struct {
	obs Observer
}

// Instrument implements Instrumented for the embedding lock.
func (pr *Probe) Instrument(o Observer) { pr.obs = o }

// Observed reports whether an observer is attached; grant paths with
// multi-step edge bookkeeping may use it to skip work wholesale.
func (pr *Probe) Observed() bool { return pr.obs != nil }

// EmitAcquireStart reports the acquire-start edge, if observed.
func (pr *Probe) EmitAcquireStart(p Proc) {
	if pr.obs != nil {
		pr.obs.AcquireStart(p)
	}
}

// EmitAcquired reports the acquired edge, if observed.
func (pr *Probe) EmitAcquired(p Proc) {
	if pr.obs != nil {
		pr.obs.Acquired(p)
	}
}

// EmitReleased reports the released edge, if observed.
func (pr *Probe) EmitReleased(p Proc) {
	if pr.obs != nil {
		pr.obs.Released(p)
	}
}

// Instrument attaches o to l and returns the lock to use. Locks with native
// hooks (Instrumented) are annotated in place and returned unchanged; any
// other lock is wrapped generically, with edges derived from the Acquire /
// Release call boundaries — equivalent for the top-level lock of a run,
// since Acquire returns exactly when the lock is held. Only safe during
// single-threaded setup. A nil observer returns l untouched.
func Instrument(l Lock, o Observer) Lock {
	if o == nil {
		return l
	}
	if in, ok := l.(Instrumented); ok {
		in.Instrument(o)
		return l
	}
	return &observedLock{inner: l, obs: o}
}

// observedLock is the generic wrapper Instrument applies to locks without
// native hooks. It forwards the optional capability interfaces the sweep
// harnesses consult (TryLocker, TryInfo, FairnessInfo), so wrapping never
// changes which code paths a workload takes.
type observedLock struct {
	inner Lock
	obs   Observer
}

// NewCtx implements Lock.
func (w *observedLock) NewCtx() Ctx { return w.inner.NewCtx() }

// Acquire implements Lock, bracketing the inner acquire with edges.
func (w *observedLock) Acquire(p Proc, c Ctx) {
	w.obs.AcquireStart(p)
	w.inner.Acquire(p, c)
	w.obs.Acquired(p)
}

// Release implements Lock, reporting the released edge after the inner
// release completes.
func (w *observedLock) Release(p Proc, c Ctx) {
	w.inner.Release(p, c)
	w.obs.Released(p)
}

// TryAcquire implements TryLocker by delegation. A successful try reports
// both acquire edges at the success instant (a trylock never waits); a
// failed try reports nothing, keeping acquired and released edge counts
// balanced. Callers must consult SupportsTry first, as for any conditional
// TryLocker.
func (w *observedLock) TryAcquire(p Proc, c Ctx) bool {
	tl, ok := w.inner.(TryLocker)
	if !ok || !tl.TryAcquire(p, c) {
		return false
	}
	w.obs.AcquireStart(p)
	w.obs.Acquired(p)
	return true
}

// TrySupported implements TryInfo: the wrapper supports trylock exactly
// when the wrapped lock does.
func (w *observedLock) TrySupported() bool { return SupportsTry(w.inner) }

// Fair implements FairnessInfo by delegation.
func (w *observedLock) Fair() bool { return Fair(w.inner) }

var (
	_ Lock     = (*observedLock)(nil)
	_ TryInfo  = (*observedLock)(nil)
	_ Observer = (observerFuncs{})
)

// observerFuncs adapts three funcs to Observer; tests and small tools use
// ObserverFromFuncs instead of declaring a type.
type observerFuncs struct {
	start, acq, rel func(p Proc)
}

// AcquireStart implements Observer.
func (o observerFuncs) AcquireStart(p Proc) {
	if o.start != nil {
		o.start(p)
	}
}

// Acquired implements Observer.
func (o observerFuncs) Acquired(p Proc) {
	if o.acq != nil {
		o.acq(p)
	}
}

// Released implements Observer.
func (o observerFuncs) Released(p Proc) {
	if o.rel != nil {
		o.rel(p)
	}
}

// ObserverFromFuncs builds an Observer from up-to-three callbacks (nil
// callbacks are skipped).
func ObserverFromFuncs(start, acquired, released func(p Proc)) Observer {
	return observerFuncs{start: start, acq: acquired, rel: released}
}
