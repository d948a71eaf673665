package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReports writes one synthetic -out report per value and loads them
// back, exercising the file format -compare reads.
func writeReports(t *testing.T, dir, workload string, failed uint64, vals ...float64) []*Report {
	t.Helper()
	var paths []string
	for i, v := range vals {
		r := &Report{Workload: workload, Seed: uint64(i), Attempted: 100, Failed: failed,
			Metrics: []Metric{{Name: "ops_per_s", Unit: "ops/s", Value: v}, {Name: "read_p99_us", Unit: "us", Value: 1000 / v}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, workload+"-"+strings.Repeat("x", i)+".json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	rs, err := LoadReports(paths)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
		{"name": "read_p99_us", "unit": "us", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	bounds, err := LoadBounds(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := writeReports(t, t.TempDir(), "w", 0, 100, 101, 99, 100.5, 99.5)
	for _, c := range []struct {
		name string
		vals []float64
		want []string // verdicts for ops_per_s, read_p99_us
		ok   bool
	}{
		{"same", []float64{100, 101, 99, 100.5, 99.5}, []string{unchanged, unchanged}, true},
		{"slower", []float64{80, 81, 79, 80.5, 79.5}, []string{regressed, regressed}, false},
		{"faster", []float64{130, 131, 129, 130.5, 129.5}, []string{improved, improved}, true},
		{"noisy", []float64{60, 100, 140, 80, 120}, []string{unresolved, unresolved}, false},
		{"noisy but all faster", []float64{150, 200, 250, 175, 225}, []string{improved, improved}, true},
	} {
		cand := writeReports(t, t.TempDir(), "w", 0, c.vals...)
		var out bytes.Buffer
		ok := Compare(&out, bounds, base, cand)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 3 {
			t.Fatalf("%s: want a header and two rows, got:\n%s", c.name, out.String())
		}
		for i, want := range c.want {
			if f := strings.Fields(lines[i+1]); f[len(f)-1] != want {
				t.Errorf("%s: row %q: verdict %s, want %s", c.name, lines[i+1], f[len(f)-1], want)
			}
		}
		if ok != c.ok {
			t.Errorf("%s: Compare = %v, want %v", c.name, ok, c.ok)
		}
	}
	var out bytes.Buffer
	if Compare(&out, bounds, base, writeReports(t, t.TempDir(), "w", 1, 100, 101, 99)) {
		t.Errorf("a set with a failed run compared clean:\n%s", out.String())
	}
}

// TestMetricsMatchBenchmarkJSON: the run emits exactly the end-to-end and
// per-layer metrics BENCHMARK.json names, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []Bound `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ns := nativeSpec{name: "t", shards: 2, lock: "seq:tkt", keys: 500, readPct: 50, workers: 1, setups: 1, rate: 2000, reps: 1, repOps: 2000}
	u, err := runNative(ns, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := runNative(ns, 1, true, false)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := runSim(simSpec{name: "t", threads: 4, horizon: 50_000, seeds: 1, locks: simLocks}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Small runs refuse the tail percentiles; the names are what is checked.
	check := func(what string, mb *metricBuilder, want map[string]string) {
		got := map[string]string{}
		for _, m := range mb.metrics {
			got[m.Name] = m.Unit
		}
		for n, u := range want {
			if got[n] != u {
				t.Errorf("%s metric %s: emitted with unit %q, BENCHMARK.json says %q", what, n, got[n], u)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", what, n)
			}
		}
	}
	want := map[string]string{}
	for _, b := range spec.EndToEnd {
		want[b.Name] = b.Unit
	}
	e2e := &metricBuilder{}
	endToEnd(e2e, u, sim)
	check("end-to-end", e2e, want)
	want = map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	pl := &metricBuilder{}
	perLayer(pl, u, tp, sim)
	check("per-layer", pl, want)
}
