package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Manifest is the results.json artifact: every Result the engine produced,
// in completion order (spec by spec, point order within a spec). It is safe
// for concurrent use by one Runner's workers.
type Manifest struct {
	mu       sync.Mutex
	path     string
	specs    []Spec
	specSeen map[string]bool
	results  []Result
}

// manifestFile is the on-disk schema of results.json.
type manifestFile struct {
	Version int      `json:"version"`
	Summary Summary  `json:"summary"`
	Specs   []Spec   `json:"specs"`
	Results []Result `json:"results"`
}

// Summary aggregates a manifest's host-side cost: how many points were
// measured, how long the measuring took, and the resulting measurement rate.
// Like Result.WallMS it is nondeterministic provenance — nothing derived
// from a manifest may depend on it.
type Summary struct {
	// Points counts the recorded results.
	Points int `json:"points"`
	// Errors counts failed runs across all points.
	Errors int `json:"errors,omitempty"`
	// WallMSTotal is the summed host wall time of all points. Workers run
	// in parallel, so this is CPU-ish time, not elapsed.
	WallMSTotal float64 `json:"wall_ms_total"`
	// TotalIters sums the median completed-iteration counts of all points.
	TotalIters uint64 `json:"total_iters"`
	// ItersPerSec is TotalIters per wall second of measurement — the
	// throughput of the simulator itself, the number the memsim fast-path
	// work moves.
	ItersPerSec float64 `json:"iters_per_sec"`
}

// Summary computes the aggregate over the currently recorded results.
func (m *Manifest) Summary() Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return summarize(m.results)
}

func summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		s.Points++
		s.Errors += len(r.Errors)
		s.WallMSTotal += r.WallMS
		s.TotalIters += r.Total
	}
	if s.WallMSTotal > 0 {
		s.ItersPerSec = float64(s.TotalIters) / (s.WallMSTotal / 1e3)
	}
	return s
}

// NewManifest returns an empty manifest that Save writes to path.
func NewManifest(path string) *Manifest {
	return &Manifest{path: path, specSeen: map[string]bool{}}
}

// AddSpec records a spec for provenance (deduplicated by hash).
func (m *Manifest) AddSpec(s Spec) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := s.Hash()
	if !m.specSeen[h] {
		m.specSeen[h] = true
		m.specs = append(m.specs, s)
	}
}

// Specs returns a copy of the recorded specs in insertion order.
func (m *Manifest) Specs() []Spec {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Spec(nil), m.specs...)
}

// Path returns the file Save writes to.
func (m *Manifest) Path() string { return m.path }

// Len returns the number of recorded results.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.results)
}

// Add records a result.
func (m *Manifest) Add(r Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.results = append(m.results, r)
}

// Results returns a copy of the recorded results in insertion order.
func (m *Manifest) Results() []Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Result(nil), m.results...)
}

// Save writes the artifact (indented JSON, trailing newline) atomically via
// a sibling temp file.
func (m *Manifest) Save() error {
	m.mu.Lock()
	f := manifestFile{Version: SchemaVersion, Summary: summarize(m.results), Specs: m.specs, Results: m.results}
	path := m.path
	m.mu.Unlock()
	if path == "" {
		return fmt.Errorf("exp: manifest has no path")
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
