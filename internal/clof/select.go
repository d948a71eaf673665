package clof

import (
	"fmt"
	"sort"
)

// Policy is a lock-selection policy (§4.3): how to collapse a throughput
// curve over contention levels into one score.
type Policy int

const (
	// HighContention ranks by weighted average throughput with weights
	// proportional to the thread count, favoring high-contention
	// performance (the paper's HC-best).
	HighContention Policy = iota
	// LowContention uses inverse weights, favoring low-contention
	// performance (the paper's LC-best).
	LowContention
)

// String returns the paper's abbreviation for the policy.
func (p Policy) String() string {
	if p == HighContention {
		return "HC"
	}
	return "LC"
}

// Point is one measured contention level of the scripted benchmark.
type Point struct {
	// Threads is the contention level (number of competing threads).
	Threads int
	// Throughput is the measured rate (operations per microsecond).
	Throughput float64
}

// Measurement is the scripted-benchmark result for one composition.
type Measurement struct {
	Comp   Composition
	Points []Point
}

// Score collapses the measurement under the given policy: the weighted
// average throughput with weights ∝ threads (HC) or ∝ 1/threads (LC).
func (m Measurement) Score(pol Policy) float64 {
	var num, den float64
	for _, pt := range m.Points {
		if pt.Threads <= 0 {
			continue
		}
		w := float64(pt.Threads)
		if pol == LowContention {
			w = 1 / w
		}
		num += w * pt.Throughput
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Rank sorts measurements best-first under the policy. Ties break by
// composition name so the ranking is deterministic.
func Rank(ms []Measurement, pol Policy) []Measurement {
	out := append([]Measurement(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Score(pol), out[j].Score(pol)
		if si != sj {
			return si > sj
		}
		return out[i].Comp.String() < out[j].Comp.String()
	})
	return out
}

// Selection is the scripted benchmark's output: the best lock under each
// policy plus the overall worst (reported for information, as in Fig. 9).
type Selection struct {
	HCBest Measurement
	LCBest Measurement
	Worst  Measurement
	// All holds every measurement, HC-ranked.
	All []Measurement
}

// Select applies both selection policies to the scripted-benchmark results.
func Select(ms []Measurement) (Selection, error) {
	if len(ms) == 0 {
		return Selection{}, fmt.Errorf("clof: no measurements to select from")
	}
	hc := Rank(ms, HighContention)
	lc := Rank(ms, LowContention)
	return Selection{
		HCBest: hc[0],
		LCBest: lc[0],
		Worst:  hc[len(hc)-1],
		All:    hc,
	}, nil
}
