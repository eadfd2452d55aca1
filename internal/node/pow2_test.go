package node

import (
	"math"
	"math/rand"
	"testing"
)

// samePow2 reports whether pow2(y) and math.Pow(2, y) have the same bits,
// counting any NaN equal to any NaN.
func samePow2(y float64) (got, want float64, ok bool) {
	got, want = pow2(y), math.Pow(2, y)
	if math.IsNaN(got) && math.IsNaN(want) {
		return got, want, true
	}
	return got, want, math.Float64bits(got) == math.Float64bits(want)
}

// TestPow2MatchesMathPow pins pow2 to math.Pow(2, y) bit for bit: the
// thermal integrator's lifetime figures flow into golden artifacts, so a
// last-bit difference here is an output change.
func TestPow2MatchesMathPow(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.5, -1.5, 2, -2,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
		1 << 63, -(1 << 63), 1<<63 - 1024, -(1<<63 - 1024),
		1 << 53, -(1 << 53), 4095, 4096, 4096.5, -4096.5,
		1023, 1023.5, 1024, -1022, -1022.5, -1074, -1074.5, -1075, -1075.5, -1076,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(-0.5, 0), math.Nextafter(-0.5, -1),
		math.Nextafter(1, 0), math.Nextafter(1, 2),
	}
	for _, y := range specials {
		if got, want, ok := samePow2(y); !ok {
			t.Errorf("pow2(%v) = %v (%#x), math.Pow = %v (%#x)", y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	rng := rand.New(rand.NewSource(1))
	const perRange = 250_000
	ranges := []struct {
		name string
		draw func() float64
	}{
		{"uniform[-10,10]", func() float64 { return rng.Float64()*20 - 10 }},
		{"normal×100", func() float64 { return rng.NormFloat64() * 100 }},
		{"raw bits", func() float64 { return math.Float64frombits(rng.Uint64()) }},
		{"half-integers", func() float64 { return float64(rng.Intn(4400)-2200) + 0.5 }},
		// 2^y is subnormal for y in (−1075, −1022).
		{"subnormal results", func() float64 { return -1022 - rng.Float64()*53 }},
	}
	for _, r := range ranges {
		bad := 0
		for i := 0; i < perRange; i++ {
			y := r.draw()
			if got, want, ok := samePow2(y); !ok {
				if bad++; bad <= 5 {
					t.Errorf("%s: pow2(%v) = %v (%#x), math.Pow = %v (%#x)", r.name, y, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d inputs differ", r.name, bad, perRange)
		}
	}
}
