package bench

import (
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/xrand"
)

func TestBucketRangeCoversValue(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 1 << 20, 123456789, 1<<maxBits - 1} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("v=%d: bucket [%g, %g) does not hold it", v, lo, lo+w)
		}
		if v >= subCount && w > lo/subCount {
			t.Errorf("v=%d: bucket width %g exceeds 1/%d of %g", v, w, subCount, lo)
		}
	}
}

// TestQuantileWithinBucketResolution compares estimated quantiles with the
// exact order statistic on skewed data: the error must stay within the
// width of the bucket that holds the exact value.
func TestQuantileWithinBucketResolution(t *testing.T) {
	r := xrand.New(3)
	var h hist
	vals := make([]int64, 200_000)
	for i := range vals {
		// Log-uniform over 10 ns .. 10 ms, the range of the measured spans.
		vals[i] = int64(10 * math.Pow(1e6, r.Float64()))
		h.record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		_, w := bucketRange(bucketOf(exact))
		if math.Abs(got-float64(exact)) > w {
			t.Errorf("q=%g: got %.1f, exact %d, allowed error %g", q, got, exact, w)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	var h hist
	for i := 0; i < 999; i++ {
		h.record(int64(i))
	}
	_, err := h.percentile(0.99)
	if err == nil {
		t.Fatal("p99 of 999 samples (9.99 beyond it) was emitted")
	}
	if !strings.Contains(err.Error(), "999") {
		t.Errorf("refusal does not state the sample count: %v", err)
	}
	h.record(999)
	if _, err := h.percentile(0.99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := h.percentile(0.9999); err == nil {
		t.Error("p99.99 of 1000 samples was emitted")
	}
}

// TestQuartilesMatchExclusiveMethod pins quartiles to Python's
// statistics.quantiles(data, n=4), which the benchmark's spreads use.
func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
