package num

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{0, 7, 7},
		{7, 0, 7},
		{12, 18, 6},
		{18, 12, 6},
		{-12, 18, 6},
		{12, -18, 6},
		{-12, -18, 6},
		{1, 1, 1},
		{13, 17, 1},
		{240, 612, 12},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCheckedMul(t *testing.T) {
	const maxI = int64(math.MaxInt64)
	const minI = int64(math.MinInt64)
	ok := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{0, maxI, 0},
		{minI, 0, 0},
		{1, maxI, maxI},
		{maxI, 1, maxI},
		{-1, maxI, -maxI},
		{1, minI, minI},
		{minI, 1, minI},
		{3, 7, 21},
		{-3, 7, -21},
		{3, -7, -21},
		{-3, -7, 21},
		{1 << 31, 1 << 31, 1 << 62},
	}
	for _, c := range ok {
		got, err := CheckedMul(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("CheckedMul(%d, %d) = %d, %v; want %d, nil", c.a, c.b, got, err, c.want)
		}
	}
	bad := []struct{ a, b int64 }{
		{maxI, 2},
		{2, maxI},
		{minI, 2},
		{minI, -1},
		{-1, minI},
		{1 << 32, 1 << 31},
		{maxI, maxI},
		{minI, minI},
		{maxI/2 + 1, 2},
	}
	for _, c := range bad {
		if got, err := CheckedMul(c.a, c.b); err == nil {
			t.Errorf("CheckedMul(%d, %d) = %d, nil; want ErrOverflow", c.a, c.b, got)
		} else if !errors.Is(err, ErrOverflow) {
			t.Errorf("CheckedMul(%d, %d) error %v is not ErrOverflow", c.a, c.b, err)
		}
	}
}

func TestCheckedAdd(t *testing.T) {
	const maxI = int64(math.MaxInt64)
	const minI = int64(math.MinInt64)
	ok := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{1, 2, 3},
		{maxI, 0, maxI},
		{maxI - 1, 1, maxI},
		{minI, 0, minI},
		{minI + 1, -1, minI},
		{maxI, minI, -1},
		{-5, 3, -2},
	}
	for _, c := range ok {
		got, err := CheckedAdd(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("CheckedAdd(%d, %d) = %d, %v; want %d, nil", c.a, c.b, got, err, c.want)
		}
	}
	bad := []struct{ a, b int64 }{
		{maxI, 1},
		{1, maxI},
		{minI, -1},
		{-1, minI},
		{maxI, maxI},
		{minI, minI},
	}
	for _, c := range bad {
		if got, err := CheckedAdd(c.a, c.b); err == nil {
			t.Errorf("CheckedAdd(%d, %d) = %d, nil; want ErrOverflow", c.a, c.b, got)
		} else if !errors.Is(err, ErrOverflow) {
			t.Errorf("CheckedAdd(%d, %d) error %v is not ErrOverflow", c.a, c.b, err)
		}
	}
}

// TestCheckedMulMatchesBigInt compares CheckedMul with exact big.Int
// products on operands around every sign and magnitude boundary.
func TestCheckedMulMatchesBigInt(t *testing.T) {
	edges := []int64{0, 1, -1, 2, -2, 3, 1 << 31, -(1 << 31), 1<<32 + 1, 3037000499, 3037000500,
		-3037000499, -3037000500, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1, math.MaxInt64 / 3, math.MinInt64 / 2}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		edges = append(edges, rng.Int63()>>uint(rng.Intn(63))*int64(1-2*rng.Intn(2)))
	}
	lo, hi := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
	for _, a := range edges {
		for _, b := range edges[:64] {
			want := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
			fits := want.Cmp(lo) >= 0 && want.Cmp(hi) <= 0
			got, err := CheckedMul(a, b)
			switch {
			case fits && (err != nil || got != want.Int64()):
				t.Fatalf("CheckedMul(%d, %d) = %d, %v; want %s", a, b, got, err, want)
			case !fits && !errors.Is(err, ErrOverflow):
				t.Fatalf("CheckedMul(%d, %d) = %d, %v; want ErrOverflow", a, b, got, err)
			}
		}
	}
}

// FuzzCheckedMul holds CheckedMul to the exact big.Int product on arbitrary
// pairs: the product when it fits in an int64, ErrOverflow otherwise.
func FuzzCheckedMul(f *testing.F) {
	seeds := []int64{0, 1, -1, 2, math.MaxInt64, math.MinInt64, 3037000500, -3037000500}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	lo, hi := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
	f.Fuzz(func(t *testing.T, a, b int64) {
		want := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		got, err := CheckedMul(a, b)
		if want.Cmp(lo) < 0 || want.Cmp(hi) > 0 {
			if !errors.Is(err, ErrOverflow) {
				t.Fatalf("CheckedMul(%d, %d) = %d, %v; want ErrOverflow", a, b, got, err)
			}
		} else if err != nil || got != want.Int64() {
			t.Fatalf("CheckedMul(%d, %d) = %d, %v; want %s", a, b, got, err, want)
		}
	})
}
