package fleet

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/nn"
	"cdl/internal/serve"
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

// TestRouterRelaysNaNConfidence500 sends a NaN confidence through the
// router: the backend's 500 and its JSON error naming the encode reach the
// client, not a 200 with an empty body.
func TestRouterRelaysNaNConfidence500(t *testing.T) {
	cdln, data := testCDLN(t, 37)
	f := startFleet(t, overflowCDLN(cdln), 1, nil)
	waitReady(t, f, 1)
	one := 1.0
	status, _, body := postJSON(t, &http.Client{Timeout: 10 * time.Second}, f.URL()+classifyPath,
		serve.V2ClassifyRequest{Image: data[0].X.Flatten().Data, Policy: &serve.PolicyRequest{Delta: &one}})
	var e struct{ Error string }
	if err := json.Unmarshal(body, &e); status != http.StatusInternalServerError || err != nil || !strings.HasPrefix(e.Error, "encode: ") {
		t.Fatalf("HTTP %d, body %q; want 500 with {\"error\": \"encode: …\"}", status, body)
	}
}
