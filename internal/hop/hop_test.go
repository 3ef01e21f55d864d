package hop

import (
	"bytes"
	"context"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// TestBodyReferences: every holder holds one reference, and the body goes
// back to the pool with the last, not before.
func TestBodyReferences(t *testing.T) {
	b := NewBody()
	if err := b.Fill(bytes.NewReader([]byte("a pooled body")), 13); err != nil {
		t.Fatal(err)
	}
	b.Retain()
	b.Retain()
	if got := b.refs.Load(); got != 3 {
		t.Fatalf("%d references, want 3", got)
	}
	b.Release()
	b.Release()
	if got := b.refs.Load(); got != 1 || string(b.Bytes()) != "a pooled body" {
		t.Fatalf("%d references holding %q after two releases, want the holder's 1 and the body", got, b.Bytes())
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
// Client and checks that they arrive exact and that what a request
// allocates does not grow with its body: the head and the body go out in
// one vectored write, with no copy buffer between them.
func TestCopyDoesNotScaleWithBody(t *testing.T) {
	var mu sync.Mutex
	buf := make([]byte, 32<<10) // guarded by mu
	var sum uint32              // guarded by mu
	var n int64                 // guarded by mu
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := crc32.NewIEEE()
		mu.Lock()
		defer mu.Unlock()
		n, _ = io.CopyBuffer(h, r.Body, buf)
		sum = h.Sum32()
	}))
	defer srv.Close()
	client := NewClient(1 << 20)
	defer client.CloseIdle()

	post := func(payload []byte) {
		t.Helper()
		resp, err := client.Do(context.Background(), &Request{Method: http.MethodPost, Base: srv.URL, Path: "/", Body: payload})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Release()
		mu.Lock()
		defer mu.Unlock()
		if resp.Status != http.StatusOK || sum != crc32.ChecksumIEEE(payload) || n != int64(len(payload)) {
			t.Fatalf("HTTP %d, the server read %d bytes summing to %x; want %d and %x", resp.Status, n, sum, len(payload), crc32.ChecksumIEEE(payload))
		}
	}
	perRequest := func(payload []byte) float64 {
		const n = 200
		for i := 0; i < 5; i++ {
			post(payload)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			post(payload)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, large := make([]byte, 1<<10), make([]byte, 256<<10)
	for i := range large {
		large[i] = byte(i * 7)
	}
	copy(small, large)
	s, l := perRequest(small), perRequest(large)
	t.Logf("%.0f B/request at 1 KiB, %.0f at 256 KiB", s, l)
	if !raceEnabled && l-s > 4<<10 {
		t.Errorf("a 256 KiB request allocates %.0f B more than a 1 KiB one, want ≤ 4 KiB", l-s)
	}
}
