package topo

import "testing"

// TestDeepServerShapes pins the vCPU counts and 4-distinct-level structure
// of the deep machines.
func TestDeepServerShapes(t *testing.T) {
	want := map[string]int{
		"armv8-deep-256":  256,
		"armv8-deep-512":  512,
		"armv8-deep-1024": 1024,
	}
	ms := DeepServers()
	if len(ms) != 3 {
		t.Fatalf("DeepServers returned %d machines", len(ms))
	}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if got := m.NumCPUs(); got != want[m.Name] {
			t.Errorf("%s: NumCPUs = %d, want %d", m.Name, got, want[m.Name])
		}
		// All four hierarchy levels must be genuinely distinct (different
		// cohort counts), otherwise the "deep" claim is hollow.
		prev := m.Cohorts(CacheGroup)
		for _, l := range []Level{NUMA, Package, System} {
			c := m.Cohorts(l)
			if c >= prev {
				t.Errorf("%s: level %v has %d cohorts, not fewer than %d below it", m.Name, l, c, prev)
			}
			prev = c
		}
		h := DeepHierarchy(m)
		if h.Depth() != 4 {
			t.Errorf("%s: DeepHierarchy depth = %d, want 4", m.Name, h.Depth())
		}
	}
}

// TestDeepShareLevels spot-checks the share-level geometry of the 1024-vCPU
// machine: 8 CPUs per cluster, 64 per die, 256 per socket.
func TestDeepShareLevels(t *testing.T) {
	m := DeepServer1024()
	cases := []struct {
		a, b int
		want Level
	}{
		{0, 0, Core},
		{0, 7, CacheGroup},
		{0, 8, NUMA},
		{0, 63, NUMA},
		{0, 64, Package},
		{0, 255, Package},
		{0, 256, System},
		{512, 1023, System},
		{768, 1023, Package},
	}
	for _, c := range cases {
		if got := m.ShareLevel(c.a, c.b); got != c.want {
			t.Errorf("ShareLevel(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestDeepPlacement pins that the core-first placement policy covers a deep
// machine: 1024 threads on 1024 cores places every CPU exactly once.
func TestDeepPlacement(t *testing.T) {
	m := DeepServer1024()
	cpus := MustPlacement(m, 1024)
	seen := make([]bool, 1024)
	for _, c := range cpus {
		if seen[c] {
			t.Fatalf("cpu %d placed twice", c)
		}
		seen[c] = true
	}
	// No SMT on the deep machines: the first n threads occupy cpus 0..n-1.
	for i, c := range MustPlacement(m, 100) {
		if c != i {
			t.Fatalf("thread %d placed on cpu %d, want %d", i, c, i)
		}
	}
}
