package memsim

import (
	"math"
	"testing"

	"github.com/clof-go/clof/internal/xrand"
)

// TestDivisorMatchesRemainder: the multiply-based remainder equals x % d
// for random and edge numerators, over small, power-of-two, odd, large and
// extreme divisors, 1 and 2⁶⁴−1 included. Jitter draws through it, so any
// difference would move a figure.
func TestDivisorMatchesRemainder(t *testing.T) {
	divisors := []uint64{1, 2, 3, 5, 7, 10, 11, 64, 100, 1000, 1001, 1 << 32, 1<<32 + 1,
		1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	rng := xrand.New(7)
	for i := 0; i < 32; i++ {
		divisors = append(divisors, rng.Uint64()>>(rng.Uint64()%64))
	}
	for _, d := range divisors {
		if d == 0 {
			continue
		}
		v := newDivisor(d)
		xs := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, math.MaxUint64, math.MaxUint64 - 1,
			math.MaxUint64 / d * d, math.MaxUint64/d*d - 1, 1 << 63}
		for i := 0; i < 2000; i++ {
			xs = append(xs, rng.Uint64())
		}
		for _, x := range xs {
			if got, want := v.mod(x), x%d; got != want {
				t.Fatalf("%d %% %d: got %d, want %d", x, d, got, want)
			}
		}
	}
}

// TestJitterDrawsUnchanged: a jittered advance adds exactly the value
// xrand's Int63n(JitterNS+1) draws from the same stream.
func TestJitterDrawsUnchanged(t *testing.T) {
	for _, j := range []int64{1, 2, 7, 50, 1000} {
		v := newDivisor(uint64(j) + 1)
		a, b := xrand.New(uint64(j)), xrand.New(uint64(j))
		for i := 0; i < 10000; i++ {
			if got, want := int64(v.mod(a.Uint64())), b.Int63n(j+1); got != want {
				t.Fatalf("jitter %d draw %d: %d, Int63n gives %d", j, i, got, want)
			}
		}
	}
}
