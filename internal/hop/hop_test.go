package hop

import (
	"bytes"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// TestBodyReferences: the holder and every reader hold one reference each,
// a reader's second Close drops nothing, and every reader reads the whole
// body.
func TestBodyReferences(t *testing.T) {
	b := NewBody()
	if err := b.Fill(bytes.NewReader([]byte("a pooled body")), 13); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://example.invalid/", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Attach(req)
	again, err := req.GetBody()
	if err != nil {
		t.Fatal(err)
	}
	if got := b.refs.Load(); got != 3 || req.ContentLength != 13 {
		t.Fatalf("%d references, Content-Length %d; want 3 and 13", got, req.ContentLength)
	}
	for _, r := range []io.ReadCloser{req.Body, again} {
		if got, err := io.ReadAll(r); err != nil || string(got) != "a pooled body" {
			t.Fatalf("a reader read %q, %v", got, err)
		}
		r.Close()
		r.Close()
	}
	if got := b.refs.Load(); got != 1 {
		t.Fatalf("%d references after both readers closed twice, want the holder's 1", got)
	}
	b.Retain()
	b.Release()
	if got := b.refs.Load(); got != 1 {
		t.Fatalf("%d references after Retain and Release, want 1", got)
	}
	b.Release()
}

// TestBodyPoolDropsLargeBuffers: a body that grew past maxPooled for one
// large request is not retained, whatever the pool hands out next.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	large := bytes.Repeat([]byte(" "), 2*maxPooled)
	for i := 0; i < 4; i++ {
		b := NewBody()
		if err := b.Fill(bytes.NewReader(large), int64(len(large))); err != nil {
			t.Fatal(err)
		}
		b.Release()
		next := NewBody()
		if c := cap(next.Bytes()); c > maxPooled {
			t.Fatalf("the pool retained a %d-byte buffer, cap %d", c, maxPooled)
		}
		next.Release()
	}
}

// TestCopyDoesNotScaleWithBody posts 1 KiB and 256 KiB bodies through a
// transport dialled by Dial, each as a *bytes.Reader and as a Body's
// reader, and checks that they arrive exact and that what a request
// allocates does not grow with its body: net/http copies a sized body
// through io.LimitReader, and without Dial the connection's ReadFrom
// allocates up to 32 KiB per body (≈ 28 KiB more per 256 KiB request).
func TestCopyDoesNotScaleWithBody(t *testing.T) {
	var bufMu sync.Mutex
	buf := make([]byte, 32<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := crc32.NewIEEE()
		bufMu.Lock()
		n, err := io.CopyBuffer(h, r.Body, buf)
		bufMu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("X-Sum", strconv.FormatUint(uint64(h.Sum32()), 10)+"/"+strconv.FormatInt(n, 10))
	}))
	defer srv.Close()
	transport := &http.Transport{DialContext: Dial((&net.Dialer{}).DialContext)}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// pooled is nil for a *bytes.Reader body; a Body is held across the
	// measurement, so what is measured is the copy, not the body pool.
	post := func(payload []byte, pooled *Body) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if pooled != nil {
			pooled.Attach(req)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		want := strconv.FormatUint(uint64(crc32.ChecksumIEEE(payload)), 10) + "/" + strconv.Itoa(len(payload))
		if got := resp.Header.Get("X-Sum"); resp.StatusCode != http.StatusOK || got != want {
			t.Fatalf("HTTP %d, the server read %q; want %q", resp.StatusCode, got, want)
		}
	}
	perRequest := func(payload []byte, pooled bool) float64 {
		var body *Body
		if pooled {
			body = NewBody()
			body.Set(append(body.Bytes()[:0], payload...))
			defer body.Release()
		}
		// Enough requests that a copy buffer the pool loses to a GC or to
		// another P now and then stays far below the bound.
		const n = 200
		for i := 0; i < 5; i++ {
			post(payload, body)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			post(payload, body)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, large := make([]byte, 1<<10), make([]byte, 256<<10)
	for i := range large {
		large[i] = byte(i * 7)
	}
	copy(small, large)
	for _, pooled := range []bool{false, true} {
		s, l := perRequest(small, pooled), perRequest(large, pooled)
		t.Logf("pooled body %v: %.0f B/request at 1 KiB, %.0f at 256 KiB", pooled, s, l)
		if !raceEnabled && l-s > 4<<10 {
			t.Errorf("pooled body %v: a 256 KiB request allocates %.0f B more than a 1 KiB one, want ≤ 4 KiB", pooled, l-s)
		}
	}
}
