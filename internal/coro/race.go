//go:build race

package coro

// Under the race detector a Thread is a goroutine that takes turns with its
// resumer over two unbuffered channels. iter.Pull is not usable there: an
// exiting coroutine skips the race runtime's goroutine-end hook (in go1.24,
// runtime.coroexit destroys the goroutine without racegoend), which leaks
// about 5.6 KB of race state per coroutine, and mcheck starts one coroutine
// per checked thread on every fresh instance, which a search builds each
// time it backtracks: up to a million instances in one test. Both
// implementations hand control over strictly, so a schedule is the same in
// either build, and the methods keep the contracts documented in coro.go.

// Thread is a coroutine. Initialise it in place with Init.
type Thread struct {
	body          func()
	resume        chan bool // resumer to thread: true runs it, false stops it
	yield         chan any  // thread to resumer: nil, or the body's panic value
	started, done bool
}

// stopped is the sentinel panic that unwinds a stopped thread's stack.
type stopped struct{}

// Init makes t a thread that runs body from its first Resume.
func (t *Thread) Init(body func()) {
	*t = Thread{body: body, resume: make(chan bool), yield: make(chan any)}
}

// Resume runs the thread until it yields, returns or panics. As in
// coro.go, any goroutine but the thread's own may call it, and the thread
// reports back to the latest caller: that caller is the one receiving on
// the yield channel.
func (t *Thread) Resume() {
	switch {
	case t.done:
		return
	case t.started:
		t.resume <- true
	default:
		t.started = true
		go t.run()
	}
	if r := <-t.yield; r != nil {
		panic(r)
	}
}

// run is the thread's goroutine: it runs the body and reports how it ended.
func (t *Thread) run() {
	defer func() {
		r := recover()
		if _, ok := r.(stopped); ok {
			r = nil
		}
		t.done = true
		t.yield <- r
	}()
	t.body()
}

// Yield suspends the calling thread until its next Resume, or unwinds it
// if it is stopped instead.
func (t *Thread) Yield() {
	t.yield <- nil
	if !<-t.resume {
		panic(stopped{})
	}
}

// Stop unwinds a suspended thread and leaves any other as it is.
func (t *Thread) Stop() {
	if t.started && !t.done {
		t.resume <- false
		<-t.yield
	}
	t.done = true
}
