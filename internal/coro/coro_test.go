package coro

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settled waits for goroutines that have been released to exit, then
// reports whether the count is back to before.
func settled(before int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() <= before
}

// TestStop stops a thread in each state it can be in and checks what the
// body got to run and that no goroutine outlives the thread.
func TestStop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		resumes int
		// wantSteps is how far the body got; wantUnwound whether its
		// deferred call ran because Stop unwound it from Yield.
		wantSteps   int
		wantUnwound bool
	}{
		{"never-started", 0, 0, false},
		{"suspended", 2, 2, true},
		{"finished", 3, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			steps, unwound, returned := 0, false, false
			var th Thread
			th.Init(func() {
				defer func() { unwound = !returned }()
				for i := 0; i < 3; i++ {
					steps++
					if i < 2 {
						th.Yield()
					}
				}
				returned = true
			})
			for i := 0; i < tc.resumes; i++ {
				th.Resume()
			}
			th.Stop()
			th.Stop() // stopping twice is a no-op
			if steps != tc.wantSteps || unwound != tc.wantUnwound {
				t.Errorf("steps=%d unwound=%v, want steps=%d unwound=%v", steps, unwound, tc.wantSteps, tc.wantUnwound)
			}
			if !settled(before) {
				t.Errorf("%d goroutines after Stop, %d before Init", runtime.NumGoroutine(), before)
			}
		})
	}
}

// TestPanicReachesResume requires a body's panic value to come out of the
// Resume that ran it, with the thread finished and nothing left running.
func TestPanicReachesResume(t *testing.T) {
	before := runtime.NumGoroutine()
	var th Thread
	th.Init(func() {
		th.Yield()
		panic("boom")
	})
	th.Resume()
	got := func() (r any) {
		defer func() { r = recover() }()
		th.Resume()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Resume panicked with %v, want boom", got)
	}
	th.Stop()
	if !settled(before) {
		t.Errorf("%d goroutines after the panic, %d before Init", runtime.NumGoroutine(), before)
	}
}

// TestNestedResume pins what memsim's dispatch relies on: a thread may be
// resumed from inside another thread's body, and then that body is its
// resumer for every purpose — the thread's Yield returns to it, a panic in
// it reaches it, and Stop still unwinds it afterwards from anywhere.
func TestNestedResume(t *testing.T) {
	before := runtime.NumGoroutine()
	var log []string
	var a, b Thread
	bUnwound := false
	b.Init(func() {
		defer func() { bUnwound = true }()
		log = append(log, "b1")
		b.Yield()
		log = append(log, "b2")
		b.Yield()
		log = append(log, "b3")
		panic("boom in b")
	})
	a.Init(func() {
		log = append(log, "a1")
		b.Resume()
		log = append(log, "a2")
		got := func() (r any) {
			defer func() { r = recover() }()
			b.Resume()
			return nil
		}()
		log = append(log, "a3:"+got.(string))
		a.Yield()
		log = append(log, "a4")
	})

	// b's first resumer is the test; its second Yield must still return
	// to a, the thread that resumed it last.
	b.Resume()
	a.Resume()
	want := "b1 a1 b2 a2 b3 a3:boom in b"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("turn order %q, want %q", got, want)
	}
	a.Resume()
	if got := log[len(log)-1]; got != "a4" {
		t.Fatalf("a's last step %q, want a4", got)
	}
	if !bUnwound {
		t.Error("b's deferred call did not run after its panic")
	}

	// Stop unwinds a thread whose last Yield returned to a nested resumer.
	var c, d Thread
	cUnwound := false
	c.Init(func() {
		defer func() { cUnwound = true }()
		c.Yield()
		t.Error("stopped thread resumed")
	})
	d.Init(func() { c.Resume() })
	d.Resume()
	c.Stop()
	if !cUnwound {
		t.Error("Stop did not unwind a thread that yielded to a nested resumer")
	}
	for _, th := range []*Thread{&a, &b, &c, &d} {
		th.Stop()
	}
	if !settled(before) {
		t.Errorf("%d goroutines after Stop, %d before Init", runtime.NumGoroutine(), before)
	}
}
