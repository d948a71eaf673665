package coro

import (
	"runtime"
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
