package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/clof-go/clof/internal/xrand"
)

// synthetic builds n points whose value is a pure function of the seed, so
// any dependence on scheduling or pool width shows up as a value change.
func synthetic(n int) []Point {
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		i := i
		pts[i] = Point{
			Key: fmt.Sprintf("lock=l%d/threads=%d", i%4, i),
			Run: func(seed uint64) Sample {
				r := xrand.New(seed)
				return Sample{
					Throughput: r.Float64(),
					Jain:       r.Float64(),
					Total:      uint64(r.Intn(1000)),
					Metrics:    map[string]float64{"aux": r.Float64()},
				}
			},
		}
	}
	return pts
}

func stripWall(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].WallMS = 0
	}
	return out
}

func TestRunnerDeterministicAcrossJobs(t *testing.T) {
	spec := Spec{Name: "synthetic", Platform: "none", Threads: []int{1, 8}, Runs: 3, Seed: 7}
	var a, b, c []Result
	a = (&Runner{Jobs: 1}).Run(spec, synthetic(33))
	b = (&Runner{Jobs: 8}).Run(spec, synthetic(33))
	c = (&Runner{Jobs: 8}).Run(spec, synthetic(33))
	if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
		t.Error("results differ between -j 1 and -j 8")
	}
	if !reflect.DeepEqual(stripWall(b), stripWall(c)) {
		t.Error("results differ between two -j 8 runs")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Seed == a[0].Seed {
			t.Fatalf("points %d and 0 share a seed", i)
		}
	}
}

func TestSpecHashCoversFields(t *testing.T) {
	base := Spec{Name: "x", Platform: "x86", Threads: []int{1, 2}, Runs: 3, Seed: 1}
	same := Spec{Name: "x", Platform: "x86", Threads: []int{1, 2}, Runs: 3, Seed: 1}
	if base.Hash() != same.Hash() {
		t.Error("equal specs hash differently")
	}
	variants := []Spec{
		{Name: "y", Platform: "x86", Threads: []int{1, 2}, Runs: 3, Seed: 1},
		{Name: "x", Platform: "armv8", Threads: []int{1, 2}, Runs: 3, Seed: 1},
		{Name: "x", Platform: "x86", Threads: []int{1, 2, 4}, Runs: 3, Seed: 1},
		{Name: "x", Platform: "x86", Threads: []int{1, 2}, Runs: 4, Seed: 1},
		{Name: "x", Platform: "x86", Threads: []int{1, 2}, Runs: 3, Seed: 2},
		{Name: "x", Platform: "x86", Threads: []int{1, 2}, Runs: 3, Seed: 1, Quick: true},
	}
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d hashes equal to base", i)
		}
	}
	if PointSeed(base, "a") == PointSeed(base, "b") {
		t.Error("distinct keys share a point seed")
	}
	if PointSeed(base, "a") != PointSeed(same, "a") {
		t.Error("point seed unstable across equal specs")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	m := NewManifest(path)
	spec := Spec{Name: "rt", Platform: "x86", Workload: "leveldb", Locks: []string{"mcs"}, Threads: []int{8}, Runs: 3, Seed: 11}
	rs := (&Runner{Jobs: 2, Manifest: m}).Run(spec, synthetic(5))
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}

	// Schema check: the artifact parses as the documented shape.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Version int      `json:"version"`
		Specs   []Spec   `json:"specs"`
		Results []Result `json:"results"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if f.Version != SchemaVersion {
		t.Errorf("version %d, want %d", f.Version, SchemaVersion)
	}
	if len(f.Specs) != 1 || !reflect.DeepEqual(f.Specs[0], spec) {
		t.Errorf("artifact specs = %+v, want the one run spec", f.Specs)
	}
	if !reflect.DeepEqual(f.Results, rs) {
		t.Error("artifact results differ from the engine's return value")
	}
	if !reflect.DeepEqual(m.Results(), rs) {
		t.Error("manifest records differ from the engine's return value")
	}
}

func TestRunnerErrorSamples(t *testing.T) {
	spec := Spec{Name: "err", Runs: 3}
	pts := []Point{{
		Key: "lock=broken/threads=2",
		Run: func(seed uint64) Sample { return Sample{Err: "deadlock"} },
	}}
	rs := (&Runner{Jobs: 2}).Run(spec, pts)
	if len(rs[0].Errors) != 3 {
		t.Fatalf("want 3 recorded errors, got %v", rs[0].Errors)
	}
	if rs[0].Tput.Median != 0 {
		t.Errorf("failed runs must report zero throughput, got %v", rs[0].Tput)
	}
}

func TestStats(t *testing.T) {
	vs := []float64{3, 1, 2}
	if m := Median(vs); m != 2 {
		t.Errorf("Median = %v, want 2", m)
	}
	if !reflect.DeepEqual(vs, []float64{3, 1, 2}) {
		t.Error("Median mutated its input")
	}
	// Upper median on even counts, matching the historic medianTput.
	if m := Median([]float64{1, 2, 3, 4}); m != 3 {
		t.Errorf("even-count Median = %v, want 3", m)
	}
	st := Summarize([]float64{2, 4, 6})
	if st.Median != 4 || st.Mean != 4 || st.Min != 2 || st.Max != 6 {
		t.Errorf("Summarize = %+v", st)
	}
	if (Summarize(nil) != Stats{}) {
		t.Error("Summarize(nil) not zero")
	}
}
