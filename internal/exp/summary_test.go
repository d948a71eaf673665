package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestManifestSummary checks the run-level aggregate: points contribute
// counts, errors, wall time and iterations, and the saved artifact carries
// the same summary.
func TestManifestSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	m := NewManifest(path)
	m.Add(Result{SpecHash: "s", Key: "a", Total: 100, WallMS: 40})
	m.Add(Result{SpecHash: "s", Key: "b", Total: 300, WallMS: 60})
	m.Add(Result{SpecHash: "s", Key: "d", Errors: []string{"deadlock", "deadlock"}})

	sum := m.Summary()
	if sum.Points != 3 || sum.Errors != 2 {
		t.Errorf("counts = %+v", sum)
	}
	if sum.WallMSTotal != 100 {
		t.Errorf("WallMSTotal = %v, want 100", sum.WallMSTotal)
	}
	if sum.TotalIters != 400 {
		t.Errorf("TotalIters = %v, want 400", sum.TotalIters)
	}
	if want := 400 / 0.1; sum.ItersPerSec != want {
		t.Errorf("ItersPerSec = %v, want %v", sum.ItersPerSec, want)
	}

	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Version int     `json:"version"`
		Summary Summary `json:"summary"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.Version != SchemaVersion {
		t.Errorf("version = %d, want %d", f.Version, SchemaVersion)
	}
	if f.Summary != sum {
		t.Errorf("saved summary %+v differs from computed %+v", f.Summary, sum)
	}
}

// TestManifestSummaryEmpty: an empty manifest reports zeroes, not NaN.
func TestManifestSummaryEmpty(t *testing.T) {
	m := NewManifest(filepath.Join(t.TempDir(), "results.json"))
	if sum := m.Summary(); sum != (Summary{}) {
		t.Errorf("empty summary = %+v", sum)
	}
}
