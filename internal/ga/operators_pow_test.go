package ga

import (
	"math"
	"math/rand"
	"testing"
)

// powCases pairs each variation power helper with the math.Pow call it
// replaces, exponents written as the operators derive them.
var powCases = []struct {
	name string
	got  func(float64) float64
	want func(float64) float64
}{
	{"-(etaC+1)", powNeg16, func(x float64) float64 { return math.Pow(x, -(etaC + 1.0)) }},
	{"etaM+1", pow21, func(x float64) float64 { return math.Pow(x, etaM+1.0) }},
	{"1/(etaC+1)", func(x float64) float64 { return powRoot(x, 1.0/(etaC+1.0)) },
		func(x float64) float64 { return math.Pow(x, 1.0/(etaC+1.0)) }},
	{"1/(etaM+1)", func(x float64) float64 { return powRoot(x, 1.0/(etaM+1.0)) },
		func(x float64) float64 { return math.Pow(x, 1.0/(etaM+1.0)) }},
}

// powSpecials are the inputs at which math.Pow's special cases, the
// helpers' range edges and the normal-number limits sit, with their
// neighbours and negations.
func powSpecials() []float64 {
	base := []float64{
		0, 1, 2, 0.5, 1e-300, 1e300,
		5e-324,                          // least subnormal
		math.Float64frombits(1<<52 - 1), // greatest subnormal
		0x1p-1022,                       // least normal
		0x1p-62, 0x1p62, 0x1p-48, 0x1p48, 0x1p-64, 0x1p64,
		// Where x¹⁶ or x²¹ leave the normal range.
		math.Exp2(-1022.0 / 16), math.Exp2(1024.0 / 16),
		math.Exp2(-1022.0 / 21), math.Exp2(1024.0 / 21),
		math.MaxFloat64, math.Inf(1),
	}
	var xs []float64
	for _, x := range base {
		for _, y := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			xs = append(xs, y, -y)
		}
	}
	return append(xs, math.NaN(), math.Copysign(0, -1), math.Inf(-1))
}

func TestPowHelpersMatchMathPowOnSpecials(t *testing.T) {
	for _, c := range powCases {
		for _, x := range powSpecials() {
			got, want := c.got(x), c.want(x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: x=%v (%#016x) gives %v, math.Pow %v", c.name, x, math.Float64bits(x), got, want)
			}
		}
	}
}

// TestPowHelpersMatchMathPowRandom compares each helper with math.Pow on
// 10⁶ random inputs: uniform on the unit interval and on [0, 4), where the
// operators draw theirs, and with uniformly random exponent bits, which
// reach every binade, sign, subnormal and special value.
func TestPowHelpersMatchMathPowRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const draws = 1_000_000
	for _, c := range powCases {
		for k := 0; k < draws; k++ {
			var x float64
			switch k % 3 {
			case 0:
				x = r.Float64()
			case 1:
				x = 4 * r.Float64()
			default:
				x = math.Float64frombits(r.Uint64())
			}
			got, want := c.got(x), c.want(x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: x=%v (%#016x) gives %v, math.Pow %v", c.name, x, math.Float64bits(x), got, want)
			}
		}
	}
}
