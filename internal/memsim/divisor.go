package memsim

import "math/bits"

// divisor computes x % d for a fixed d ≥ 1 by multiplication instead of a
// 64-bit divide (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019). With the 128-bit M = ⌈2¹²⁸/d⌉, x % d is the high
// 64 bits of ((M·x) mod 2¹²⁸)·d, exactly, for every 64-bit x and d: 128
// fractional bits are enough for a 64-bit numerator and divisor. d = 1
// makes M wrap to 0, which yields x % 1 = 0.
type divisor struct {
	d, mhi, mlo uint64
}

// newDivisor precomputes M for d, which must be at least 1.
func newDivisor(d uint64) divisor {
	// M = ⌊(2¹²⁸−1)/d⌋ + 1 = ⌈2¹²⁸/d⌉, by long division of the 128-bit
	// all-ones numerator.
	hi, r := bits.Div64(0, ^uint64(0), d)
	lo, _ := bits.Div64(r, ^uint64(0), d)
	lo, carry := bits.Add64(lo, 1, 0)
	return divisor{d: d, mhi: hi + carry, mlo: lo}
}

// mod returns x % d.
func (v divisor) mod(x uint64) uint64 {
	// f = (M·x) mod 2¹²⁸, the fraction x/d scaled by 2¹²⁸.
	fhi, flo := bits.Mul64(v.mlo, x)
	fhi += v.mhi * x
	// x % d = ⌊f·d / 2¹²⁸⌋.
	carry, _ := bits.Mul64(flo, v.d)
	hi, mid := bits.Mul64(fhi, v.d)
	_, c := bits.Add64(mid, carry, 0)
	return hi + c
}
