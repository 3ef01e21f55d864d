package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cdl/internal/hop"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// SwapResult is one backend's outcome within a rolling fleet swap.
type SwapResult struct {
	Backend string `json:"backend"`
	Status  int    `json:"status"`
	Version int    `json:"version,omitempty"`
	Error   string `json:"error,omitempty"`
}

// SwapResponse reports a rolling fleet swap: per-backend results in swap
// order plus the fleet-level outcome. Swapped counts backends that
// published the new model; on a mid-fleet failure the swap stops (leaving
// the remaining backends on the old version, which the zero-drop registry
// keeps serving) and Failed names the backend that refused.
type SwapResponse struct {
	Model   string       `json:"model"`
	Swapped int          `json:"swapped"`
	Total   int          `json:"total"`
	Failed  string       `json:"failed,omitempty"`
	Results []SwapResult `json:"results"`
}

// handleRollingSwap fans a model (or branch) PUT across the fleet one
// backend at a time: mark the backend draining so the picker steers new
// traffic to its ring successors, forward the PUT (the backend's own
// registry swap is zero-drop — in-flight requests finish on the old
// version), then re-admit it and move on. One backend is draining at any
// moment, so fleet capacity never dips by more than 1/N during a rollout.
func (rt *Router) handleRollingSwap(w http.ResponseWriter, r *http.Request) {
	model := r.PathValue("model")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	tr := obs.FromContext(r.Context())
	traceID := ""
	if tr.Propagated() {
		traceID = tr.ID()
	}
	resp := SwapResponse{Model: model, Total: len(rt.backends)}
	start := time.Now()
	for _, b := range rt.backends {
		res := rt.swapOne(r.Context(), b, r.URL.RequestURI(), body, traceID)
		resp.Results = append(resp.Results, res)
		if res.Status == http.StatusOK {
			resp.Swapped++
			continue
		}
		// A failed node stops the rollout: a half-swapped fleet is
		// recoverable (retry the PUT), a fleet that plowed past a refusal
		// may be serving a bad artifact everywhere.
		resp.Failed = b.url
		rt.metrics.swapFailures.Add(1)
		tr.Record("router:swap", start, time.Now(), fmt.Sprintf("model=%s swapped=%d/%d failed=%s", model, resp.Swapped, resp.Total, b.url))
		status := http.StatusBadGateway
		if res.Status != 0 {
			status = res.Status
		}
		serve.WriteJSON(w, status, resp)
		return
	}
	rt.metrics.swaps.Add(1)
	tr.Record("router:swap", start, time.Now(), fmt.Sprintf("model=%s swapped=%d/%d", model, resp.Swapped, resp.Total))
	serve.WriteJSON(w, http.StatusOK, resp)
}

// swapOne drains one backend, forwards the PUT, and re-admits it.
func (rt *Router) swapOne(ctx context.Context, b *backend, path string, body []byte, traceID string) SwapResult {
	out := SwapResult{Backend: b.url}
	if !b.healthy.Load() {
		// An unreachable backend cannot take the PUT; report it so the
		// operator retries once it returns rather than silently leaving it
		// on the old version.
		out.Error = "backend not ready"
		return out
	}
	b.swapping.Store(true)
	defer b.swapping.Store(false)

	// Model loading and warm-up legitimately outlast a classify deadline.
	hr, err := rt.data.Do(ctx, &hop.Request{Method: http.MethodPut, Base: b.url, Path: path, ContentType: "application/json", TraceID: traceID, Body: body, Timeout: 2 * rt.cfg.RequestTimeout})
	if err != nil {
		out.Error = err.Error()
		b.healthy.Store(false)
		return out
	}
	defer hr.Body.Release()
	payload := hr.Body.Bytes()
	out.Status = hr.Status
	if hr.Status != http.StatusOK {
		out.Error = string(payload)
		return out
	}
	var put serve.V2PutModelResponse
	if json.Unmarshal(payload, &put) == nil {
		out.Version = put.Version
	}
	return out
}
