package modelio

import (
	"testing"

	"cdl/internal/core"
	"cdl/internal/mnist"
)

// TestBenchFixturesPinExits pins what core.Evaluate reads on the
// benchmark's two fixtures, read in place, over its 1 500-image test split
// at seeds 1–4: accuracy and normalized OPS, compared exactly. Seed 1's
// rows are bench/fixtures.go's, which the benchmark checks at set-up; a
// change to the arithmetic of the walk (σ, a kernel's summation order)
// that flips one exit fails here, in tier-1, rather than as a benchmark
// that cannot start.
func TestBenchFixturesPinExits(t *testing.T) {
	const testImages = 1500 // bench/spec.go's split
	want := map[string][4][2]float64{
		"mnist2c": {
			{0.9646666666666667, 0.5203555745598543},
			{0.962, 0.5210945856339896},
			{0.96, 0.5247896410046664},
			{0.97, 0.524050629930531},
		},
		"mnist3c": {
			{0.964, 0.5244841981725208},
			{0.9693333333333334, 0.520011177243133},
			{0.9673333333333334, 0.5279401346857798},
			{0.9746666666666667, 0.5256761617347082},
		},
	}
	models := map[string]*core.CDLN{}
	for name := range want {
		m, err := LoadFile("../../bench/testdata/" + name + ".cdln")
		if err != nil {
			t.Fatal(err)
		}
		models[name] = m
	}
	for seed := int64(1); seed <= 4; seed++ {
		_, test, err := mnist.GenerateSamples(1, testImages, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"mnist2c", "mnist3c"} {
			res, err := core.Evaluate(models[name], test, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			acc, ops := res.Confusion.Accuracy(), res.NormalizedOps()
			if w := want[name][seed-1]; acc != w[0] || ops != w[1] {
				t.Errorf("%s seed %d: accuracy %v, normalized OPS %v; want %v, %v", name, seed, acc, ops, w[0], w[1])
			}
		}
	}
}
