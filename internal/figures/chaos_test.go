package figures

import (
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
)

// TestNoopPointFails: a lock that excludes nobody must fail its sweep point
// instead of reporting a throughput, both through measure (the curve
// figures) and through faultSample (the chaos and collapse sweeps).
func TestNoopPointFails(t *testing.T) {
	m := topo.X86Server()
	noop := func() lockapi.Lock { return lockapi.Noop{} }
	cfg := workload.LevelDB(m, 8)
	cfg.Seed = 1
	entry := catalog.Entry{Name: "noop", Family: "basic", New: func(*topo.Machine) lockapi.Lock { return noop() }}
	for name, s := range map[string]exp.Sample{
		"measure":     measure(noop, cfg),
		"faultSample": faultSample(m, entry, 8, workload.DefaultHorizon, nil, 1),
	} {
		if !strings.Contains(s.Err, "mutual-exclusion violations") || s.Throughput != 0 {
			t.Errorf("%s: Err = %q, throughput %v; want a mutual-exclusion failure and zero throughput", name, s.Err, s.Throughput)
		}
	}
}
