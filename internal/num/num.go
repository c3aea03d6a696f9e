// Package num holds the small integer helpers shared across the framework.
// Before it existed every package carried its own gcd64/min64/max64 copy;
// min/max are Go builtins since 1.21, so only the non-builtin helpers live
// here.
//
// CheckedMul and CheckedAdd are the overflow-guarded arithmetic the rest of
// the pipeline is required to use on repetition-vector, rate, and
// token-count quantities: TNSE and bufmem are products of per-firing rates
// and repetition counts, and on large multirate graphs those products exceed
// int64 long before the individual factors look suspicious. The sdflint
// checkedmul analyzer enforces the convention at the source level.
package num

import (
	"errors"
	"math/bits"
)

// ErrOverflow is the typed error every checked arithmetic helper returns
// when a computation exceeds the int64 range. Callers wrap it with %w so
// errors.Is(err, num.ErrOverflow) identifies the class across package
// boundaries.
var ErrOverflow = errors.New("num: int64 overflow")

// CheckedMul returns a*b, or ErrOverflow if the product does not fit in an
// int64. It is exact for all operand signs, including math.MinInt64 edge
// cases, and divides nothing: bits.Mul64 gives the unsigned 128-bit
// product, whose high word, corrected for the operands' signs, is the
// signed product's. The product fits exactly when that high word is the
// sign extension of the low one.
func CheckedMul(a, b int64) (int64, error) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// A negative a adds 2^64*b to the unsigned product, a negative b adds
	// 2^64*a: take them back out of the high word.
	shi := int64(hi) - (a>>63)&b - (b>>63)&a
	if shi != int64(lo)>>63 {
		return 0, ErrOverflow
	}
	return int64(lo), nil
}

// CheckedAdd returns a+b, or ErrOverflow if the sum does not fit in an
// int64.
func CheckedAdd(a, b int64) (int64, error) {
	r := a + b
	if (b > 0 && r < a) || (b < 0 && r > a) {
		return 0, ErrOverflow
	}
	return r, nil
}

// GCD returns the greatest common divisor of a and b, treating negatives by
// absolute value. GCD(0, 0) is 0.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
