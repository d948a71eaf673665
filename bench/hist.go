package bench

import (
	"fmt"
	"math/bits"
)

// Histogram geometry: values below subCount have exact unit buckets; above
// that every power-of-two octave is split into subCount equal buckets, so a
// bucket is at most 1/subCount of its lower bound wide (1.6%). Values at or
// above 2^maxBits ns (18 minutes) share the last bucket.
const (
	subBits  = 6
	subCount = 1 << subBits
	maxBits  = 40
	nBuckets = (maxBits - subBits + 1) * subCount
)

// minTail is the fewest samples a percentile may have beyond it: a p99 needs
// 1,000 samples and a p99.99 100,000.
const minTail = 10

// hist is a log-linear histogram of non-negative durations in ns (host or
// virtual). Quantiles interpolate linearly inside the bucket that holds the
// requested rank, so their error is bounded by one bucket's width.
type hist struct {
	counts [nBuckets]uint64
	n      uint64
}

func bucketOf(v int64) int {
	switch {
	case v < subCount:
		if v < 0 {
			return 0
		}
		return int(v)
	case v >= 1<<maxBits:
		return nBuckets - 1
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return shift*subCount + int(uint64(v)>>shift)
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	shift := i/subCount - 1
	return float64(uint64(i%subCount+subCount) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) of the recorded samples.
func (h *hist) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return 0
}

// percentile is quantile guarded by the sample-count rule: it refuses a
// percentile with fewer than minTail samples beyond it, naming the count.
func (h *hist) percentile(q float64) (float64, error) {
	if beyond := (1 - q) * float64(h.n); beyond+1e-9 < minTail {
		return 0, fmt.Errorf("p%g rests on %.1f samples beyond it (of %d), fewer than %d",
			100*q, beyond, h.n, minTail)
	}
	return h.quantile(q), nil
}
