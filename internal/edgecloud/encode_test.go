package edgecloud

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// TestEdgeNaNConfidenceAnswers500 offloads an input past the split into a
// cloud that resumes it to a NaN confidence: the edge front must answer
// 500 with a JSON error naming the encode, not 200 with an empty body.
func TestEdgeNaNConfidenceAnswers500(t *testing.T) {
	cdln, data := testCDLN(t, 56)
	bad := overflowCDLN(cdln)
	edgeSrv, err := NewServer(bad, func() (Transport, error) { return NewLoopback(bad) },
		Config{SplitStage: 1, Delta: -1}, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(edgeSrv.Handler())
	defer ts.Close()
	one := 1.0
	body, _ := json.Marshal(serve.ClassifyRequest{Image: data[0].X.Flatten().Data, Delta: &one})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(out, &e); resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.HasPrefix(e.Error, "encode: ") {
		t.Fatalf("HTTP %d, body %q; want 500 with {\"error\": \"encode: …\"}", resp.StatusCode, out)
	}
}
