package mnist

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"cdl/internal/train"
)

// GenConfig controls the synthetic digit generator. Zero values take the
// documented defaults via Normalize.
type GenConfig struct {
	// N is the number of images to generate.
	N int
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
	// NoiseLevel is the standard deviation of additive pixel noise at
	// difficulty 1 (default 0.12).
	NoiseLevel float64
	// MaxRotate is the rotation range in radians at difficulty 1
	// (default 0.45 ≈ 26°).
	MaxRotate float64
	// DifficultyExponent shapes the difficulty distribution: difficulty is
	// drawn as U^e, so larger e skews the dataset easier. Default 1.6,
	// which makes the bulk of inputs easy with a hard tail — the
	// distribution CDL exploits.
	DifficultyExponent float64
	// BalanceClasses makes the label sequence a repeating 0..9 cycle
	// instead of uniform draws.
	BalanceClasses bool
	// Groups, when non-empty, draws each label from one of these digit
	// groups instead of the full class set: first a group is chosen (by
	// GroupWeights, or uniformly), then a digit uniformly within it. This
	// skews traffic toward class subsets — the workload shape that
	// exercises branch routing in a class-grouped cascade. Takes
	// precedence over BalanceClasses.
	Groups [][]int
	// GroupWeights biases the group draw; len must equal len(Groups) and
	// every weight must be positive. Empty means uniform.
	GroupWeights []float64
}

// Normalize fills zero fields with defaults and validates the rest.
func (c *GenConfig) Normalize() error {
	if c.N <= 0 {
		return fmt.Errorf("mnist: GenConfig.N=%d", c.N)
	}
	if c.NoiseLevel == 0 {
		c.NoiseLevel = 0.18
	}
	if c.NoiseLevel < 0 || c.NoiseLevel > 1 {
		return fmt.Errorf("mnist: NoiseLevel=%v", c.NoiseLevel)
	}
	if c.MaxRotate == 0 {
		c.MaxRotate = 0.55
	}
	if c.DifficultyExponent == 0 {
		c.DifficultyExponent = 1.2
	}
	if c.DifficultyExponent < 0 {
		return fmt.Errorf("mnist: DifficultyExponent=%v", c.DifficultyExponent)
	}
	for gi, g := range c.Groups {
		if len(g) == 0 {
			return fmt.Errorf("mnist: Groups[%d] is empty", gi)
		}
		for _, d := range g {
			if d < 0 || d >= Classes {
				return fmt.Errorf("mnist: Groups[%d] digit %d out of range [0,%d)", gi, d, Classes)
			}
		}
	}
	if len(c.GroupWeights) > 0 {
		if len(c.GroupWeights) != len(c.Groups) {
			return fmt.Errorf("mnist: %d GroupWeights for %d Groups", len(c.GroupWeights), len(c.Groups))
		}
		for wi, w := range c.GroupWeights {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("mnist: GroupWeights[%d]=%v (must be finite and positive)", wi, w)
			}
		}
	}
	return nil
}

// ParseGroups parses a digit-group spec like "even,odd" or "0-4,567,89"
// into explicit digit groups. Groups are comma-separated; each token is
// "even", "odd", "all", an inclusive range "a-b", or a run of digits
// ("013" → {0,1,3}).
func ParseGroups(spec string) ([][]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("mnist: empty group spec")
	}
	var groups [][]int
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		var g []int
		switch {
		case tok == "even":
			for d := 0; d < Classes; d += 2 {
				g = append(g, d)
			}
		case tok == "odd":
			for d := 1; d < Classes; d += 2 {
				g = append(g, d)
			}
		case tok == "all":
			for d := 0; d < Classes; d++ {
				g = append(g, d)
			}
		case strings.Contains(tok, "-"):
			parts := strings.SplitN(tok, "-", 2)
			lo, err1 := strconv.Atoi(parts[0])
			hi, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil || lo > hi || lo < 0 || hi >= Classes {
				return nil, fmt.Errorf("mnist: bad digit range %q", tok)
			}
			for d := lo; d <= hi; d++ {
				g = append(g, d)
			}
		default:
			if tok == "" {
				return nil, fmt.Errorf("mnist: empty group token in %q", spec)
			}
			for _, r := range tok {
				if r < '0' || r > '9' {
					return nil, fmt.Errorf("mnist: bad group token %q (want even, odd, all, a-b or digits)", tok)
				}
				g = append(g, int(r-'0'))
			}
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// pickLabel draws a label from the configured groups: group by weight
// (uniform when unweighted), then digit uniformly within the group.
func (c *GenConfig) pickLabel(rng *rand.Rand) int {
	gi := 0
	if len(c.GroupWeights) > 0 {
		total := 0.0
		for _, w := range c.GroupWeights {
			total += w
		}
		u := rng.Float64() * total
		for i, w := range c.GroupWeights {
			if u < w || i == len(c.GroupWeights)-1 {
				gi = i
				break
			}
			u -= w
		}
	} else {
		gi = rng.Intn(len(c.Groups))
	}
	g := c.Groups[gi]
	return g[rng.Intn(len(g))]
}

// Generate synthesizes cfg.N labelled digit images. It is deterministic
// for a fixed config.
func Generate(cfg GenConfig) ([]Image, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	variants := glyphVariants()
	imgs := make([]Image, cfg.N)
	for i := range imgs {
		label := rng.Intn(Classes)
		if cfg.BalanceClasses {
			label = i % Classes
		}
		if len(cfg.Groups) > 0 {
			label = cfg.pickLabel(rng)
		}
		imgs[i] = renderDigit(label, variants[label], rng, &cfg)
	}
	return imgs, nil
}

// GenerateSplit produces a train and a test set from two derived seeds, the
// usual 60k/10k style split at configurable sizes.
func GenerateSplit(trainN, testN int, seed int64) (trainImgs, testImgs []Image, err error) {
	trainImgs, err = Generate(GenConfig{N: trainN, Seed: seed, BalanceClasses: true})
	if err != nil {
		return nil, nil, err
	}
	testImgs, err = Generate(GenConfig{N: testN, Seed: seed + 7919, BalanceClasses: true})
	if err != nil {
		return nil, nil, err
	}
	return trainImgs, testImgs, nil
}

// GenerateSamples is GenerateSplit returned as training samples.
func GenerateSamples(trainN, testN int, seed int64) (trainS, testS []train.Sample, err error) {
	trainImgs, testImgs, err := GenerateSplit(trainN, testN, seed)
	if err != nil {
		return nil, nil, err
	}
	return ToSamples(trainImgs), ToSamples(testImgs), nil
}

// renderDigit draws one randomized instance of the digit's glyph.
func renderDigit(label int, variants []glyph, rng *rand.Rand, cfg *GenConfig) Image {
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

	// Build the warped, wavy segment list, each segment with its bounding
	// box grown by the stroke's reach: a pixel outside it is further than
	// width+aa from the segment, which can only yield v < 0, and that
	// clamps to the same +0 as if the segment had been measured.
	type seg struct{ a, b, lo, hi pt }
	const aa = 0.030 // antialias band in glyph units
	reach := width + aa + 1e-9
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
				segs = append(segs, seg{prev, q,
					pt{min(prev.X, q.X) - reach, min(prev.Y, q.Y) - reach},
					pt{max(prev.X, q.X) + reach, max(prev.Y, q.Y) + reach}})
			}
			prev = q
		}
	}

	// Rasterize: intensity from distance-to-nearest-segment with a soft
	// falloff, approximating pen pressure and antialiasing. The minimum is
	// taken over squared distances: a correctly rounded sqrt is monotone,
	// so one sqrt of the least square is the least of the sqrts, bit for bit.
	pix := make([]float64, Side*Side)
	for py := 0; py < Side; py++ {
		for px := 0; px < Side; px++ {
			gx := (float64(px) + 0.5) / Side
			gy := (float64(py) + 0.5) / Side
			best := math.Inf(1)
			for _, s := range segs {
				if gx < s.lo.X || gx > s.hi.X || gy < s.lo.Y || gy > s.hi.Y {
					continue
				}
				if d2 := dist2PointSeg(gx, gy, s.a, s.b); d2 < best {
					best = d2
				}
			}
			v := 1 - (math.Sqrt(best)-width)/aa
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

// dist2PointSeg returns the squared Euclidean distance from (x,y) to
// segment ab.
func dist2PointSeg(x, y float64, a, b pt) float64 {
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
	return dx*dx + dy*dy
}

// blur3x3 applies one pass of a 3×3 binomial-ish blur with the given
// strength in [0,1]; strength 0 returns the input unchanged.
func blur3x3(pix []float64, strength float64) []float64 {
	if strength <= 0 {
		return pix
	}
	out := make([]float64, len(pix))
	for y := 0; y < Side; y++ {
		for x := 0; x < Side; x++ {
			sum := 0.0
			cnt := 0.0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					nx, ny := x+dx, y+dy
					if nx < 0 || nx >= Side || ny < 0 || ny >= Side {
						continue
					}
					sum += pix[ny*Side+nx]
					cnt++
				}
			}
			center := pix[y*Side+x]
			out[y*Side+x] = center*(1-strength) + strength*(sum/cnt)
		}
	}
	return out
}
