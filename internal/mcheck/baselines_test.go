package mcheck

import (
	"testing"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/cna"
	"github.com/clof-go/clof/internal/hmcs"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/shfllock"
	"github.com/clof-go/clof/internal/topo"
)

// TestBaselinesVerified model-checks the baseline NUMA-aware locks on the
// 2-level verification machine — the assurance the paper notes CNA and
// ShflLock originally lacked (§1: "running them on Armv8 quickly causes
// hangs or mutual exclusion violations" without barriers; our
// implementations carry explicit order annotations and must pass).
func TestBaselinesVerified(t *testing.T) {
	mach := VerifyMachine()
	h := topo.MustHierarchy(mach, topo.CacheGroup, topo.System)
	tkt := locks.MustType("tkt")
	mcs := locks.MustType("mcs")
	cases := []struct {
		name string
		mk   func() lockapi.Lock
	}{
		{"hmcs2", func() lockapi.Lock { return hmcs.Must(h, hmcs.WithThreshold(2)) }},
		{"cna", func() lockapi.Lock { return cna.New(mach) }},
		{"shfllock", func() lockapi.Lock { return shfllock.New(mach) }},
		{"cohort-tkt-mcs", func() lockapi.Lock {
			// Local MCS per cache group under a global ticket lock.
			return clof.Must(h, clof.Composition{mcs, tkt})
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name+"/sc", func(t *testing.T) {
			res := Check(LockProgram(c.name, 2, 2, c.mk), Config{Mode: SC})
			if !res.OK {
				t.Fatalf("2x2: %s (witness %v)", res.Violation, res.Witness)
			}
			res = Check(LockProgram(c.name, 3, 1, c.mk), Config{Mode: SC})
			if !res.OK {
				t.Fatalf("3x1: %s (witness %v)", res.Violation, res.Witness)
			}
			t.Logf("3x1: %d states, %d executions", res.States, res.Executions)
		})
		t.Run(c.name+"/wmm", func(t *testing.T) {
			res := Check(LockProgram(c.name, 2, 2, c.mk), Config{Mode: WMM})
			if !res.OK {
				t.Fatalf("wmm 2x2: %s (witness %v)", res.Violation, res.Witness)
			}
		})
	}
}
