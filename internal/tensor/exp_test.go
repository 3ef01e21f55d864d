package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// refPrec is the working precision of the exact references, in bits.
const refPrec = 200

var refLn2 = sync.OnceValue(func() *big.Float {
	// ln 2 = 2·atanh(1/3) = Σ_k 2 / ((2k+1)·3^(2k+1)), over three bits a term.
	prec := uint(refPrec + 64)
	sum, term := new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec)
	pow := new(big.Float).SetPrec(prec).SetInt64(3) // 3^(2k+1)
	for k := int64(0); k < refPrec/3+8; k++ {
		term.SetInt64(2)
		term.Quo(term, pow)
		term.Quo(term, new(big.Float).SetInt64(2*k+1))
		sum.Add(sum, term)
		pow.Mul(pow, new(big.Float).SetInt64(9))
	}
	return sum
})

// refExp returns e^x to refPrec bits: x = k·ln2 + r, e^r from its Taylor
// series at r/2^12, squared back twelve times, then scaled by 2^k.
func refExp(x *big.Float) *big.Float {
	prec := uint(refPrec + 64)
	xf, _ := x.Float64()
	k := math.Round(xf / math.Ln2)
	r := new(big.Float).SetPrec(prec).Mul(new(big.Float).SetFloat64(k), refLn2())
	r.Sub(new(big.Float).SetPrec(prec).Set(x), r)
	const halvings = 12
	r.SetMantExp(r, -halvings)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for n := int64(1); term.Sign() != 0 && term.MantExp(nil) > -int(prec); n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		sum.Add(sum, term)
	}
	for range halvings {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, int(k))
}

func refExp64(x float64) *big.Float { return refExp(new(big.Float).SetFloat64(x)) }

// ulpErr returns |got − ref| in units of the last place of ref as a
// float64 (subnormal spacing below the normal range).
func ulpErr(got float64, ref *big.Float) float64 {
	e := ref.MantExp(nil) - 53 // ref = m·2^(e+53), m ∈ [½, 1)
	if ref.Sign() == 0 || e < -1074 {
		e = -1074
	}
	d := new(big.Float).SetPrec(refPrec).SetFloat64(got)
	d.Sub(d, ref)
	d.SetMantExp(d, -e)
	f, _ := d.Float64()
	return math.Abs(f)
}

// TestExpTable recomputes every word of expTable, and the reduction's
// ln2/128 split, from the exact values.
func TestExpTable(t *testing.T) {
	ln2N := new(big.Float).SetPrec(refPrec).SetMantExp(refLn2(), -expTableBits)
	for j := range expN {
		x := new(big.Float).SetPrec(refPrec).Mul(new(big.Float).SetInt64(int64(j)), ln2N)
		v := refExp(x) // 2^(j/128)
		s, _ := v.Float64()
		tail := new(big.Float).SetPrec(refPrec).Quo(v, new(big.Float).SetFloat64(s))
		tail.Sub(tail, big.NewFloat(1))
		tf, _ := tail.Float64()
		want := [2]uint64{math.Float64bits(tf), math.Float64bits(s) - uint64(j)<<(52-expTableBits)}
		if expTable[j] != want {
			t.Errorf("expTable[%d] = %#x, want %#x", j, expTable[j], want)
		}
	}
	f, _ := ln2N.Float64()
	if hi := math.Float64frombits(math.Float64bits(f) &^ (1<<18 - 1)); hi != ln2hiN {
		t.Errorf("ln2hiN = %x, want ln2/128 cut to 35 bits, %x", ln2hiN, hi)
	}
	lo, _ := new(big.Float).SetPrec(refPrec).Sub(ln2N, big.NewFloat(ln2hiN)).Float64()
	if lo != ln2loN {
		t.Errorf("ln2loN = %x, want %x", ln2loN, lo)
	}
	// The tail's coefficients are a minimax fit, so only their distance
	// from the Taylor coefficients is checked here; TestExpAccuracy checks
	// what they give.
	for n, c := range []float64{expC2, expC3, expC4, expC5} {
		fact := 1.0
		for i := 2; i <= n+2; i++ {
			fact *= float64(i)
		}
		if d := math.Abs(c*fact - 1); d > 2e-6 {
			t.Errorf("c%d = %v is %.2g from 1/%v", n+2, c, d, fact)
		}
	}
}

// TestExpAccuracy bounds exp by one ulp of the exact e^x on seeded points
// over [−745, 709.78] (half of them in [−40, 40], where σ's arguments
// live) and on every table knot, and pins the ends.
func TestExpAccuracy(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 0, n+2*expN)
	for i := range n {
		if i%2 == 0 {
			xs = append(xs, -745+rng.Float64()*(709.78+745))
		} else {
			xs = append(xs, -40+80*rng.Float64())
		}
	}
	for j := range 2 * expN {
		xs = append(xs, float64(j-expN)*(math.Ln2/expN))
	}
	worst, at := 0.0, 0.0
	sub, subAt := 0.0, 0.0 // over subnormal results
	for _, x := range xs {
		y := exp(x)
		e := ulpErr(y, refExp64(x))
		if e > worst {
			worst, at = e, x
		}
		if y < 0x1p-1022 && e > sub {
			sub, subAt = e, x
		}
	}
	t.Logf("max error %.3f ulp at %v; %.3f on subnormal results", worst, at, sub)
	if worst > 1 {
		t.Errorf("exp(%v) is %.3f ulp from e^x, want ≤ 1", at, worst)
	}
	// A subnormal result is rounded once, in its own grid: rounded first
	// to 53 bits and then to the grid, a quarter of the top binade's
	// results would be up to ¾ of an ulp off.
	if sub > 0.501 {
		t.Errorf("exp(%v), a subnormal, is %.3f ulp from e^x, want ≤ 0.501", subAt, sub)
	}

	negZero := math.Copysign(0, -1)
	for _, c := range []struct{ x, want float64 }{
		{0, 1}, {negZero, 1}, {1e-300, 1}, {-1e-300, 1},
		{710, math.Inf(1)},
		{-746, 0},
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0},
	} {
		if got := exp(c.x); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	for _, x := range []float64{-708, -745, 709.78} {
		if e := ulpErr(exp(x), refExp64(x)); e > 1 {
			t.Errorf("exp(%v) = %v is %.3f ulp from e^x", x, exp(x), e)
		}
	}
	if got := exp(-745); got != 5e-324 {
		t.Errorf("exp(-745) = %v, want the least subnormal", got)
	}
	if got := exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("exp(NaN) = %v", got)
	}
}

// refSigmoid returns 1/(1+e^-x) to refPrec bits.
func refSigmoid(x float64) *big.Float {
	d := refExp64(-x)
	d.Add(d, big.NewFloat(1))
	return d.Quo(big.NewFloat(1).SetPrec(refPrec), d)
}

// TestSigmoidAccuracy holds Sigmoid to the bar 1/(1+math.Exp(-x)) sets:
// on seeded points over σ's working range, its largest error against the
// exact σ is no larger than that one's.
func TestSigmoidAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var worst, libm float64
	for range 20_000 {
		x := -40 + 80*rng.Float64()
		ref := refSigmoid(x)
		worst = max(worst, ulpErr(Sigmoid(x), ref))
		libm = max(libm, ulpErr(1/(1+math.Exp(-x)), ref))
	}
	t.Logf("max error: Sigmoid %.3f ulp, 1/(1+math.Exp(-x)) %.3f ulp", worst, libm)
	if worst > libm {
		t.Errorf("Sigmoid is %.3f ulp from σ, 1/(1+math.Exp(-x)) %.3f", worst, libm)
	}
}

// TestSigmoidInPlaceMatchesSigmoid requires the loop's inlined common path
// to give Sigmoid's bits, on a million points that cross into every branch
// exp has off it.
func TestSigmoidInPlaceMatchesSigmoid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := make([]float64, 1_000_000)
	ends := []float64{0, math.Copysign(0, -1), 0x1p-54, -0x1p-55, 5e-324, 512, -512, 708.5, -708.5,
		745, -745, 746, -746, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range d {
		switch i % 8 {
		case 0:
			d[i] = ends[(i/8)%len(ends)]
		case 1:
			d[i] = (rng.Float64()*2 - 1) * 800 // |x| > 708 and subnormal σ among them
		default:
			d[i] = rng.NormFloat64() * 8
		}
	}
	want := make([]float64, len(d))
	for i, x := range d {
		want[i] = Sigmoid(x)
	}
	SigmoidInPlace(d)
	for i := range d {
		if math.Float64bits(d[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: SigmoidInPlace %v (%#x), Sigmoid %v (%#x)", i, d[i], math.Float64bits(d[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
