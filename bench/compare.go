package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Bound is one end-to-end metric of BENCHMARK.json: which direction is
// better, and the share of the baseline median by which it may worsen.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end-to-end bounds from a BENCHMARK.json file.
func LoadBounds(path string) ([]Bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, b := range spec.EndToEnd {
		if b.Better != "lower" && b.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher, got %q", path, b.Name, b.Better)
		}
	}
	return spec.EndToEnd, nil
}

// LoadReports reads reports written with -out.
func LoadReports(paths []string) ([]*Report, error) {
	var out []*Report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &Report{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges candidate values b against baseline values a and returns
// it with the relative gain of b's median (positive is better). A spread
// (quartile distance over median) wider than the bound leaves the metric
// unresolved unless every run of one side reads better than every run of
// the other.
func verdict(bd Bound, a, b []float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	gain := relChange(ma, mb)
	aLo, aHi := extremes(a)
	bLo, bHi := extremes(b)
	allBetter, allWorse := bLo > aHi, bHi < aLo
	if bd.Better == "lower" {
		gain = -gain
		allBetter, allWorse = bHi < aLo, bLo > aHi
	}
	switch {
	case math.Max(spread(a), spread(b)) <= bd.Bound:
	case allBetter:
		return improved, gain
	case allWorse:
		return regressed, gain
	default:
		return unresolved, gain
	}
	switch {
	case gain < -bd.Bound:
		return regressed, gain
	case gain > bd.Bound:
		return improved, gain
	}
	return unchanged, gain
}

func extremes(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

func relChange(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// spread is the quartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// Compare prints, for every workload both sets ran and every bounded
// metric, each set's median and quartiles and the verdict against the
// bound. It reports whether every pair is unchanged or improved and no run
// of either set failed.
func Compare(w io.Writer, bounds []Bound, a, b []*Report) bool {
	ok := true
	for _, set := range [][]*Report{a, b} {
		for _, r := range set {
			if r.Failed > 0 {
				fmt.Fprintf(w, "FAILED run: %s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	byWorkload := func(set []*Report) map[string][]*Report {
		m := map[string][]*Report{}
		for _, r := range set {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for n := range wa {
		if _, both := wb[n]; both {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "no workload appears in both sets")
		return false
	}
	fmt.Fprintf(w, "%-14s %-22s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "gain", "bound", "verdict")
	for _, n := range names {
		for _, bd := range bounds {
			va, vb := values(wa[n], bd.Name), values(wb[n], bd.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-22s missing from a set\n", n, bd.Name)
				ok = false
				continue
			}
			v, gain := verdict(bd, va, vb)
			if v == regressed || v == unresolved {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-22s %-34s %-34s %+7.2f%% %5.1f%%  %s\n", n, bd.Name, summary(va), summary(vb), 100*gain, 100*bd.Bound, v)
		}
	}
	return ok
}

func values(rs []*Report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		for _, m := range r.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func summary(vs []float64) string {
	q1, med, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", med, q1, q3, len(vs))
}
