package hop

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// hopServer is an httptest server that counts the connections it accepts.
// At cleanup it closes c's idle connections and itself, then checks that
// the test left no goroutine behind.
func hopServer(t *testing.T, c *Client, h http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	before := runtime.NumGoroutine()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(func() {
		c.CloseIdle()
		srv.Close()
		settle(t, before)
	})
	return srv, &conns
}

// settle waits for the goroutine count to fall back to before.
func settle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines, %d before the test", runtime.NumGoroutine(), before)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func pooled(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, pool := range c.idle {
		n += len(pool)
	}
	return n
}

func do(ctx context.Context, c *Client, srv *httptest.Server, body []byte) (Response, error) {
	return c.Do(ctx, &Request{Method: http.MethodPost, Base: srv.URL, Path: "/x", ContentType: "application/json", TraceID: "t-1", Body: body})
}

// TestClientReadsSizedAndChunkedAnswers: a Content-Length answer and a
// chunked one read whole, with their status and headers, over one pooled
// connection that still reads the answer after the chunked one; what the
// server saw is the request as sent.
func TestClientReadsSizedAndChunkedAnswers(t *testing.T) {
	c := NewClient(1 << 20)
	srv, conns := hopServer(t, c, func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		if r.URL.Path != "/x" || r.Header.Get("Content-Type") != "application/json" || r.Header.Get("X-Trace-Id") != "t-1" || string(got) != "ping" {
			t.Errorf("the server read %s %q %q %q", r.URL.Path, r.Header.Get("Content-Type"), r.Header.Get("X-Trace-Id"), got)
		}
		w.Header().Set("Content-Type", "application/x-cdl-wire")
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusTeapot)
		if r.URL.Query().Get("chunked") == "" {
			_, _ = w.Write([]byte("pong"))
			return
		}
		for _, part := range []string{"po", "", "ng"} {
			_, _ = w.Write([]byte(part))
			w.(http.Flusher).Flush()
		}
	})
	for _, path := range []string{"/x", "/x?chunked=1", "/x"} {
		resp, err := c.Do(context.Background(), &Request{Method: http.MethodPost, Base: srv.URL + "/", Path: path, ContentType: "application/json", TraceID: "t-1", Body: []byte("ping")})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != http.StatusTeapot || resp.ContentType != "application/x-cdl-wire" || resp.RetryAfter != "3" || string(resp.Body.Bytes()) != "pong" {
			t.Errorf("%s: %+v %q", path, resp, resp.Body.Bytes())
		}
		resp.Body.Release()
	}
	if conns.Load() != 1 || pooled(c) != 1 {
		t.Errorf("%d connections dialled, %d pooled; want 1 and 1", conns.Load(), pooled(c))
	}
}

// TestClientRefusesAnswersOverItsBound: a sized and a chunked answer over
// the bound are errors, and neither connection is pooled.
func TestClientRefusesAnswersOverItsBound(t *testing.T) {
	c := NewClient(100)
	srv, _ := hopServer(t, c, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("chunked") != "" {
			w.(http.Flusher).Flush()
		}
		_, _ = w.Write(bytes.Repeat([]byte("x"), 101))
	})
	for _, path := range []string{"/", "/?chunked=1"} {
		if resp, err := c.Do(context.Background(), &Request{Method: http.MethodGet, Base: srv.URL, Path: path}); !errors.Is(err, errTooLarge) {
			t.Errorf("%s: %+v, %v; want the bound's error", path, resp, err)
		}
	}
	if pooled(c) != 0 {
		t.Errorf("%d connections pooled after refused answers", pooled(c))
	}
}

// TestClientDropsAClosingConnection: an answer under Connection: close
// leaves nothing in the pool, and the next request dials afresh.
func TestClientDropsAClosingConnection(t *testing.T) {
	c := NewClient(1 << 20)
	srv, conns := hopServer(t, c, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		_, _ = w.Write([]byte("bye"))
	})
	for i := 0; i < 2; i++ {
		resp, err := do(context.Background(), c, srv, nil)
		if err != nil || string(resp.Body.Bytes()) != "bye" {
			t.Fatalf("%+v, %v", resp, err)
		}
		resp.Body.Release()
		if pooled(c) != 0 {
			t.Fatalf("a closing connection was pooled")
		}
	}
	if conns.Load() != 2 {
		t.Errorf("%d connections for 2 closing answers", conns.Load())
	}
}

// TestClientDropsAStaleConnection: a pooled connection the server has
// since closed is dropped before use, costs one fresh dial and surfaces no
// error.
func TestClientDropsAStaleConnection(t *testing.T) {
	c := NewClient(1 << 20)
	srv, conns := hopServer(t, c, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	for i := 0; i < 3; i++ {
		resp, err := do(context.Background(), c, srv, []byte("ping"))
		if err != nil || string(resp.Body.Bytes()) != "ok" {
			t.Fatalf("request %d: %+v, %v", i, resp, err)
		}
		resp.Body.Release()
		srv.CloseClientConnections()
		time.Sleep(10 * time.Millisecond) // the FIN lands
	}
	if conns.Load() != 3 {
		t.Errorf("%d connections for 3 requests over closed keep-alives, want 3", conns.Load())
	}
}

// TestClientDoesNotReplayARequestTheServerRead: a server that reads a
// request whole on a pooled connection and closes it unanswered gets the
// request once, and the caller the error.
func TestClientDoesNotReplayARequestTheServerRead(t *testing.T) {
	c := NewClient(1 << 20)
	var dropped atomic.Int64
	srv, _ := hopServer(t, c, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/drop" {
			dropped.Add(1)
			panic(http.ErrAbortHandler) // closes the connection unanswered
		}
		_, _ = w.Write([]byte("ok"))
	})
	for _, path := range []string{"/x", "/drop"} {
		resp, err := c.Do(context.Background(), &Request{Method: http.MethodPost, Base: srv.URL, Path: path, Body: []byte("ping")})
		if (err == nil) != (path == "/x") {
			t.Fatalf("%s: %+v, %v", path, resp, err)
		}
		if err == nil {
			resp.Body.Release()
		}
	}
	if dropped.Load() != 1 {
		t.Errorf("the server read the dropped request %d times, want 1", dropped.Load())
	}
}

// TestClientCancelDuringRead: cancelling the context while the answer is
// awaited returns within 100 ms and closes the connection.
func TestClientCancelDuringRead(t *testing.T) {
	c := NewClient(1 << 20)
	release := make(chan struct{})
	srv, _ := hopServer(t, c, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	// The Timeout only bounds a client that misses the cancel.
	_, err := c.Do(ctx, &Request{Method: http.MethodPost, Base: srv.URL, Path: "/", Body: []byte("ping"), Timeout: 2 * time.Second})
	if waited := time.Since(start); !errors.Is(err, context.Canceled) || waited > 150*time.Millisecond {
		t.Errorf("returned %v after %v; want context.Canceled within 100 ms of the cancel at 50 ms", err, waited)
	}
	if pooled(c) != 0 {
		t.Errorf("a cancelled connection was pooled")
	}
}

// TestClientDeadline: Timeout, and a context deadline under it, each end
// an exchange the server does not answer.
func TestClientDeadline(t *testing.T) {
	c := NewClient(1 << 20)
	release := make(chan struct{})
	srv, _ := hopServer(t, c, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	defer close(release)
	start := time.Now()
	_, err := c.Do(context.Background(), &Request{Method: http.MethodGet, Base: srv.URL, Path: "/", Timeout: 50 * time.Millisecond})
	if !errors.Is(err, os.ErrDeadlineExceeded) || time.Since(start) > time.Second {
		t.Errorf("Timeout: %v after %v", err, time.Since(start))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err = c.Do(ctx, &Request{Method: http.MethodGet, Base: srv.URL, Path: "/", Timeout: time.Minute})
	if !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > time.Second {
		t.Errorf("context deadline: %v after %v", err, time.Since(start))
	}
}

// TestClientDialDeadline: the deadline bounds the connect too.
func TestClientDialDeadline(t *testing.T) {
	c := NewClient(1 << 20)
	c.Dial = func(ctx context.Context, _, _ string) (net.Conn, error) {
		<-ctx.Done() // a backend that drops the SYN
		return nil, ctx.Err()
	}
	start := time.Now()
	_, err := c.Do(context.Background(), &Request{Method: http.MethodGet, Base: "http://backend.invalid", Path: "/", Timeout: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > time.Second {
		t.Errorf("%v after %v; want the deadline within the 50 ms Timeout", err, time.Since(start))
	}
}

// TestClientReadsAnEarlyRefusal: a server that answers 413 without
// reading a 2 MiB body gets its 413 back. A 16 KiB send buffer keeps most
// of the body unsent when the server stops reading and closes, so the
// write fails and the client must still read the answer sent before it.
func TestClientReadsAnEarlyRefusal(t *testing.T) {
	c := NewClient(1 << 20)
	c.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		nc, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return nc, nc.(*net.TCPConn).SetWriteBuffer(16 << 10)
	}
	srv, _ := hopServer(t, c, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "too large", http.StatusRequestEntityTooLarge)
	})
	for i := 0; i < 3; i++ {
		resp, err := do(context.Background(), c, srv, make([]byte, 2<<20))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != http.StatusRequestEntityTooLarge || !strings.HasPrefix(string(resp.Body.Bytes()), "too large") {
			t.Errorf("HTTP %d %q", resp.Status, resp.Body.Bytes())
		}
		resp.Body.Release()
	}
}

// TestClientTLS: an https:// base speaks TLS over the same pool, and
// alive keeps its idle connection.
func TestClientTLS(t *testing.T) {
	c := NewClient(1 << 20)
	before := runtime.NumGoroutine()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		_, _ = w.Write(append([]byte("tls "), got...))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.StartTLS()
	defer func() { c.CloseIdle(); srv.Close(); settle(t, before) }()
	c.tls = srv.Client().Transport.(*http.Transport).TLSClientConfig
	for i := 0; i < 2; i++ {
		resp, err := do(context.Background(), c, srv, []byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != http.StatusOK || string(resp.Body.Bytes()) != "tls ping" {
			t.Errorf("HTTP %d %q", resp.Status, resp.Body.Bytes())
		}
		resp.Body.Release()
	}
	if conns.Load() != 1 || pooled(c) != 1 {
		t.Errorf("%d TLS connections dialled, %d pooled; want 1 and 1", conns.Load(), pooled(c))
	}
}
