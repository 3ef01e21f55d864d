package mnist

// raster_ref_test.go pins the rasteriser's shortcuts — the minimum taken
// over squared distances with one square root per pixel, and segments
// skipped outside their grown bounding box — as exact: whole datasets must
// come out bit for bit as the exhaustive loop draws them.

import (
	"math"
	"math/rand"
	"testing"
)

// renderDigitRef is renderDigit as it stood before the rasteriser was
// tightened, kept verbatim: every segment's distance, square root included,
// for every pixel.
func renderDigitRef(label int, variants []glyph, rng *rand.Rand, cfg *GenConfig) Image {
	// Difficulty draw: U^e keeps most samples easy; the per-class hardness
	// multiplier shifts each digit's whole distribution.
	difficulty := math.Pow(rng.Float64(), cfg.DifficultyExponent)
	d := difficulty * classHardness[label]

	g := variants[rng.Intn(len(variants))]

	// Affine warp parameters scale with effective difficulty d.
	rot := (rng.Float64()*2 - 1) * cfg.MaxRotate * d
	scaleX := 1 + (rng.Float64()*2-1)*0.30*d
	scaleY := 1 + (rng.Float64()*2-1)*0.30*d
	shear := (rng.Float64()*2 - 1) * 0.50 * d
	dx := (rng.Float64()*2 - 1) * 0.15 * d
	dy := (rng.Float64()*2 - 1) * 0.15 * d

	// Stroke appearance.
	width := 0.040 + 0.018*rng.Float64() + 0.028*d*rng.Float64()
	wavAmp := 0.022 * d * rng.Float64() * 2
	wavFreq := 2 + rng.Float64()*4
	wavPhase := rng.Float64() * 2 * math.Pi

	cos, sin := math.Cos(rot), math.Sin(rot)
	warp := func(p pt) pt {
		// center, scale/shear/rotate, translate, un-center
		x := (p.X - 0.5) * scaleX
		y := (p.Y - 0.5) * scaleY
		x += shear * y
		xr := x*cos - y*sin
		yr := x*sin + y*cos
		return pt{X: xr + 0.5 + dx, Y: yr + 0.5 + dy}
	}

	// Build the warped, wavy segment list.
	type seg struct{ a, b pt }
	var segs []seg
	arcPos := 0.0
	for _, st := range g {
		prev := pt{}
		for i, p := range st {
			q := warp(p)
			arcPos += 0.13
			q.X += wavAmp * math.Sin(wavFreq*arcPos+wavPhase)
			q.Y += wavAmp * math.Cos(wavFreq*arcPos*0.8+wavPhase)
			if i > 0 {
				segs = append(segs, seg{prev, q})
			}
			prev = q
		}
	}

	// Rasterize: intensity from distance-to-nearest-segment with a soft
	// falloff, approximating pen pressure and antialiasing.
	pix := make([]float64, Side*Side)
	aa := 0.030 // antialias band in glyph units
	for py := 0; py < Side; py++ {
		for px := 0; px < Side; px++ {
			gx := (float64(px) + 0.5) / Side
			gy := (float64(py) + 0.5) / Side
			best := math.Inf(1)
			for _, s := range segs {
				if dseg := distPointSegRef(gx, gy, s.a, s.b); dseg < best {
					best = dseg
				}
			}
			v := 1 - (best-width)/aa
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			pix[py*Side+px] = v
		}
	}

	// Slight blur couples neighbouring pixels like optical scanning does.
	pix = blur3x3(pix, 0.30+0.35*d)

	// Additive noise, scaled by difficulty.
	sigma := cfg.NoiseLevel * (0.25 + 0.75*d)
	for i := range pix {
		pix[i] += rng.NormFloat64() * sigma
		if pix[i] < 0 {
			pix[i] = 0
		}
		if pix[i] > 1 {
			pix[i] = 1
		}
	}

	return Image{Pixels: pix, Label: label, Difficulty: d}
}

// distPointSegRef returns the Euclidean distance from (x,y) to segment ab.
func distPointSegRef(x, y float64, a, b pt) float64 {
	vx, vy := b.X-a.X, b.Y-a.Y
	wx, wy := x-a.X, y-a.Y
	den := vx*vx + vy*vy
	t := 0.0
	if den > 0 {
		t = (wx*vx + wy*vy) / den
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
	}
	dx := x - (a.X + t*vx)
	dy := y - (a.Y + t*vy)
	return math.Sqrt(dx*dx + dy*dy)
}

// TestRasterMatchesReference generates 1 500 images on each of six seeds,
// balanced and unbalanced, hard and default difficulty, and requires every
// pixel, label and difficulty to equal the reference generator's bitwise.
func TestRasterMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := GenConfig{N: 1500, Seed: seed, BalanceClasses: seed%2 == 1}
		if seed == 6 {
			cfg.DifficultyExponent, cfg.NoiseLevel = 0.5, 0.2 // mostly hard: wide, wavy, warped strokes
		}
		got, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		variants := glyphVariants()
		for i, im := range got {
			label := rng.Intn(Classes)
			if cfg.BalanceClasses {
				label = i % Classes
			}
			want := renderDigitRef(label, variants[label], rng, &cfg)
			if im.Label != want.Label || math.Float64bits(im.Difficulty) != math.Float64bits(want.Difficulty) {
				t.Fatalf("seed %d image %d: label %d difficulty %v, reference %d %v", seed, i, im.Label, im.Difficulty, want.Label, want.Difficulty)
			}
			for p, v := range want.Pixels {
				if math.Float64bits(im.Pixels[p]) != math.Float64bits(v) {
					t.Fatalf("seed %d image %d pixel %d: %v, reference %v", seed, i, p, im.Pixels[p], v)
				}
			}
		}
	}
}
