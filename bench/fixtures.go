package main

// fixtures.go owns the checked-in models. A run never trains: it loads
// testdata/*.cdln (embedded, so the binary is hermetic), checks the bytes
// against a pinned sha256 and, at seed 1, checks core.Evaluate against the
// accuracy and normalized OPS recorded when the fixtures were made.

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"cdl/internal/core"
	"cdl/internal/experiments"
	"cdl/internal/modelio"
)

//go:embed testdata/mnist2c.cdln testdata/mnist3c.cdln
var fixtureFS embed.FS

// fixtureInfo pins one fixture: its bytes, and what core.Evaluate reads on
// the seed-1 test split under the trained thresholds.
type fixtureInfo struct {
	SHA256   string
	Accuracy float64
	NormOps  float64
}

// fixtures were trained once by regenFixtures (3C: exits 93.3/2.3/4.3 %,
// 1.91x fewer OPS than its baseline, the paper's headline ratio).
var fixtures = map[string]fixtureInfo{
	"mnist2c": {
		SHA256:   "79ee59b12ef0658ae06db8cad4f26ec8a18a571032b7ec25c68fb201bd98306a",
		Accuracy: 0.9646666666666667,
		NormOps:  0.5203555745598543,
	},
	"mnist3c": {
		SHA256:   "2bf7eb9387e640360d8b7c7a7b42e2324567096c7e5e06f899fafb29cad687ad",
		Accuracy: 0.964,
		NormOps:  0.5244841981725208,
	},
}

// fixtureSeed is the seed whose Evaluate numbers fixtures records.
const fixtureSeed = 1

// fixtureBytes returns the embedded, hash-checked model file.
func fixtureBytes(name string) ([]byte, error) {
	info, ok := fixtures[name]
	if !ok {
		return nil, fmt.Errorf("unknown fixture %q", name)
	}
	raw, err := fixtureFS.ReadFile("testdata/" + name + ".cdln")
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != info.SHA256 {
		return nil, fmt.Errorf("fixture %s: sha256 %s, want %s (regenerate with -regen-fixtures and update fixtures.go)", name, got, info.SHA256)
	}
	return raw, nil
}

// loadFixture decodes a checked fixture.
func loadFixture(name string) (*core.CDLN, error) {
	raw, err := fixtureBytes(name)
	if err != nil {
		return nil, err
	}
	model, err := modelio.LoadCDLN(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", name, err)
	}
	return model, nil
}

// checkFixtureEval fails when the loaded fixture no longer evaluates to the
// recorded numbers on the recorded seed.
func checkFixtureEval(name string, seed int64, res *core.EvalResult) error {
	if seed != fixtureSeed || res.Confusion.Total() != testImages {
		return nil
	}
	want := fixtures[name]
	acc, ops := res.Confusion.Accuracy(), res.NormalizedOps()
	if math.Abs(acc-want.Accuracy) > 1e-9 || math.Abs(ops-want.NormOps) > 1e-9 {
		return fmt.Errorf("fixture %s: core.Evaluate reads accuracy %v, norm ops %v; recorded %v, %v",
			name, acc, ops, want.Accuracy, want.NormOps)
	}
	return nil
}

// regenFixtures retrains both fixtures into dir with the experiments'
// default configuration at Workers 1, the only worker count whose gradient
// summation order does not depend on the machine (ROADMAP item 1), and
// prints the lines to paste into the fixtures table. The weights repeat
// exactly; the file bytes need not, because modelio gob-encodes each
// layer's parameters as a map, in map iteration order — hence a new hash.
func regenFixtures(dir string) error {
	cfg := experiments.DefaultConfig()
	cfg.Workers = 1
	cfg.Log = os.Stderr
	ctx := experiments.NewContext(cfg)
	_, testS, err := ctx.Data()
	if err != nil {
		return err
	}
	builders := []struct {
		name  string
		build func() (*core.CDLN, *core.Report, error)
	}{{"mnist2c", ctx.MNIST2C}, {"mnist3c", ctx.MNIST3C}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, b := range builders {
		model, _, err := b.build()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := modelio.SaveCDLN(&buf, model); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, b.name+".cdln"), buf.Bytes(), 0o644); err != nil {
			return err
		}
		res, err := core.Evaluate(model, testS, 0, false)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Printf("%q: {SHA256: %q, Accuracy: %v, NormOps: %v},\n",
			b.name, hex.EncodeToString(sum[:]), res.Confusion.Accuracy(), res.NormalizedOps())
	}
	return nil
}
