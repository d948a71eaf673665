package figures

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/clof-go/clof/internal/exp"
)

// TestSweep drives the sweep runner with a fake measurement that fails at
// one (row, x): every point is keyed "<row>/<axis>=<x>", dispatched in
// row-major order and seeded from the untouched spec; the failed point
// keeps its error and folds to 0 while its neighbours keep their values;
// and the results are identical at any worker-pool width.
func TestSweep(t *testing.T) {
	rows := []string{"lock=a", "h=8"}
	xs := []int{32, 1, 8}
	spec := exp.Spec{Name: "sweep", Locks: []string{"a"}, Threads: xs, Runs: 1}
	want := func(row, x int) float64 { return float64(100*row + x) }
	run := func(row, x int, seed uint64) exp.Sample {
		if row == 1 && x == 1 {
			return exp.Sample{Throughput: 7, Jain: 0.5, Err: "boom"}
		}
		return exp.Sample{Throughput: want(row, x), Jain: 1}
	}

	var wantKeys []string
	for _, row := range rows {
		for _, x := range xs {
			wantKeys = append(wantKeys, fmt.Sprintf("%s/threads=%d", row, x))
		}
	}
	sweepAt := func(jobs int) [][]exp.Result {
		m := exp.NewManifest(filepath.Join(t.TempDir(), "results.json"))
		res := Options{Jobs: jobs, Manifest: m}.sweep(spec, rows, "threads", xs, run)
		if specs := m.Specs(); len(specs) != 1 || !reflect.DeepEqual(specs[0], spec) {
			t.Errorf("-j %d: engine ran spec %+v, want %+v", jobs, specs, spec)
		}
		var keys []string
		for _, r := range m.Results() {
			keys = append(keys, r.Key)
		}
		if !reflect.DeepEqual(keys, wantKeys) {
			t.Errorf("-j %d: dispatch order %v, want row-major %v", jobs, keys, wantKeys)
		}
		if len(res) != len(rows) {
			t.Fatalf("-j %d: %d result rows, want %d", jobs, len(res), len(rows))
		}
		for i, row := range res {
			if len(row) != len(xs) {
				t.Fatalf("-j %d: row %d has %d results, want %d", jobs, i, len(row), len(xs))
			}
			for j, r := range row {
				if r.Key != wantKeys[i*len(xs)+j] || r.Seed != exp.PointSeed(spec, r.Key) {
					t.Errorf("-j %d: result (%d,%d) = key %q seed %d, want key %q seed %d", jobs, i, j,
						r.Key, r.Seed, wantKeys[i*len(xs)+j], exp.PointSeed(spec, wantKeys[i*len(xs)+j]))
				}
			}
			// Zero the one nondeterministic field before comparing widths.
			for j := range row {
				row[j].WallMS = 0
			}
		}
		return res
	}

	res := sweepAt(1)
	if !reflect.DeepEqual(res, sweepAt(4)) {
		t.Error("results differ between -j 1 and -j 4")
	}
	if failed := res[1][1]; !reflect.DeepEqual(failed.Errors, []string{"boom"}) {
		t.Errorf("failed point errors = %v, want [boom]", failed.Errors)
	}
	for i, name := range []string{"a", "h8"} {
		tput := series(name, xs, res[i], exp.Result.Throughput)
		fair := series(name, xs, res[i], func(r exp.Result) float64 { return r.Jain.Median })
		if tput.Name != name || !reflect.DeepEqual(tput.X, xs) {
			t.Errorf("row %d: series %q over %v, want %q over %v", i, tput.Name, tput.X, name, xs)
		}
		for j, x := range xs {
			wantT, wantJ := want(i, x), 1.0
			if i == 1 && x == 1 {
				wantT, wantJ = 0, 0
			}
			if tput.Y[j] != wantT || fair.Y[j] != wantJ {
				t.Errorf("row %d x=%d: throughput %v jain %v, want %v and %v", i, x, tput.Y[j], fair.Y[j], wantT, wantJ)
			}
		}
	}
}
