//go:build go1.23 && !race

// Package coro runs a function body as a coroutine: a thread of control
// that executes only between a Resume and its own next Yield, so the
// resumer and the body never run at the same time. memsim's virtual CPUs and
// mcheck's checked threads both run on it.
//
// Threads are runtime coroutines (iter.Pull). The build constraint raises
// this file's language version to the one that introduced iter while the
// module stays at go 1.22; it is the repository's only go1.23 file. Race
// builds use the goroutine implementation in race.go instead.
package coro

import "iter"

// Thread is a coroutine. Initialise it in place with Init; the zero Thread
// has no body.
type Thread struct {
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// stopped is the sentinel panic that unwinds a stopped thread's stack.
type stopped struct{}

// Init makes t a thread that runs body. body does not start until the first
// Resume.
func (t *Thread) Init(body func()) {
	t.resume, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		// Stop unwinds the body with the stopped sentinel; any other panic
		// is the body's and reaches Resume's caller.
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					panic(r)
				}
			}
		}()
		t.yield = yield
		body()
	})
}

// Resume runs the thread until it yields or returns. A panic in the body
// propagates out of Resume, and the thread is finished afterwards.
//
// Any caller but the thread itself may Resume it: its owner, or the body of
// another thread, which then waits inside Resume as the owner would. The
// thread's next Yield, return or panic goes back to whoever resumed it last,
// not to its first resumer. A thread that is running, or is itself waiting
// inside a nested Resume, must not be resumed.
func (t *Thread) Resume() { t.resume() }

// Yield suspends the calling thread until its next Resume. It is called
// only by the thread's own body. If the thread is stopped instead of
// resumed, Yield unwinds the body's stack and never returns.
func (t *Thread) Yield() {
	if !t.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Stop ends the thread: a suspended body is unwound from its Yield, and a
// finished or never-started thread is left as it is.
func (t *Thread) Stop() { t.stop() }
