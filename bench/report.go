package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// Metric is one measured value. Value is the median over N values — one per
// repetition for host metrics, a single pooled value otherwise — with
// quartiles Q1 and Q3, resting on Samples observations.
type Metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	N       int     `json:"n"`
	Samples uint64  `json:"samples"`
}

// Report is the result of one run.
type Report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Attempted counts store requests and simulated acquisitions; Failed
	// counts Get misses, Get values that are neither the preload value nor
	// the key's written pattern, exclusion violations, and deadlocked runs.
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Metrics   []Metric `json:"metrics"`
	spans     []spanSet
}

func (r *Report) addCounts(attempted, failed uint64) {
	r.Attempted += attempted
	r.Failed += failed
}

// failFrac is the share of attempted operations that failed.
func (r *Report) failFrac() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// WriteText prints one "name value unit" line per metric, followed by the
// quartiles and sample count, then the failure share.
func (r *Report) WriteText(w io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %.6g %s\tq1=%.6g q3=%.6g n=%d samples=%d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N, m.Samples)
	}
	fmt.Fprintf(w, "fail_frac %.6g frac\tfailed=%d attempted=%d\n", r.failFrac(), r.Failed, r.Attempted)
}

// summaryValue is one metric of the summary line.
type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// SummaryJSON returns the one-line summary: correct, attempted, failed,
// and every metric's value and unit.
func (r *Report) SummaryJSON() ([]byte, error) {
	metrics := make(map[string]summaryValue, len(r.Metrics))
	for _, m := range r.Metrics {
		metrics[m.Name] = summaryValue{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted uint64                  `json:"attempted"`
		Failed    uint64                  `json:"failed"`
		Metrics   map[string]summaryValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

// WriteSpans writes the spans a traced run kept as Chrome trace-event JSON.
func (r *Report) WriteSpans(w io.Writer) error { return writeChromeTrace(w, r.spans) }
