package serve

// encode_test.go: a response that JSON cannot carry. Finite weights whose
// products overflow to Inf − Inf give a finite input a NaN confidence, and
// every data route must answer that with a 500 and a JSON error naming the
// encode, not with a 200 and an empty body.

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"cdl/internal/core"
	"cdl/internal/nn"
)

// overflowCDLN poisons a deep copy of testCDLN's cascade: C1 saturates to
// σ = 1 everywhere, and C2 weighs its first input channel +MaxFloat64 and
// its second −MaxFloat64, so the two channel sums overflow to +Inf and −Inf
// and fold to NaN. Every record that gets past O1 has a NaN confidence.
func overflowCDLN(cdln *core.CDLN) *core.CDLN {
	c := cdln.Clone()
	c.Arch.Net = c.Arch.Net.DeepClone()
	c1, c2 := c.Arch.Net.Layers[0].(*nn.Conv2D), c.Arch.Net.Layers[3].(*nn.Conv2D)
	clear(c1.Weight().W.Data)
	for i := range c1.Bias().W.Data {
		c1.Bias().W.Data[i] = 40 // σ(40) rounds to 1
	}
	w, kk := c2.Weight().W.Data, c2.KernelSize()*c2.KernelSize()
	for i := range w {
		w[i] = math.MaxFloat64
		if i/kk%c2.InChannels() == 1 {
			w[i] = -math.MaxFloat64
		}
	}
	return c
}

// TestNaNConfidenceAnswers500 drives a NaN confidence through the classify
// route.
func TestNaNConfidenceAnswers500(t *testing.T) {
	cdln, data := testCDLN(t, 61)
	bad := overflowCDLN(cdln)
	img := data[0].X.Flatten().Data
	ref := bad.Clone()
	ref.Delta = 1
	if rec := ref.Classify(data[0].X); !math.IsNaN(rec.Confidence) {
		t.Fatalf("fixture record %+v: the confidence is not NaN", rec)
	}
	_, ts := startServer(t, bad, Config{Workers: 1})
	one := 1.0
	status, out := postClassify(t, ts.URL, V2ClassifyRequest{Image: img, Policy: &PolicyRequest{Delta: &one}})
	var e struct{ Error string }
	if err := json.Unmarshal(out, &e); status != http.StatusInternalServerError || err != nil || !strings.HasPrefix(e.Error, "encode: ") {
		t.Fatalf("HTTP %d, body %q; want 500 with {\"error\": \"encode: …\"}", status, out)
	}
}
