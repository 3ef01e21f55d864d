package fleet

// forward_test.go: the router is opaque to bodies, so it must be opaque to
// what labels them. An edge tier pointed at a cdlrouter front door sends its
// offloads as wire frames (Content-Type wire.FrameContentType); a backend
// picks its decoder by that header alone, so relabelling the forwarded
// attempt as JSON turns every offload into a 400.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// TestRouterForwardsEdgeOffloads is the chain edge → Router → two backends:
// a batch whose hard residue offloads through the router comes back with
// records equal to the monolithic oracle's, on the named-model resume
// route.
func TestRouterForwardsEdgeOffloads(t *testing.T) {
	cdln, data := testCDLN(t, 31)
	f := startFleet(t, cdln, 2, nil)
	waitReady(t, f, 2)

	const delta = 0.9
	ref := cdln.Clone()
	ref.Delta, ref.StageDeltas = delta, nil
	xs := make([]*tensor.T, 48)
	for i := range xs {
		xs[i] = data[i].X
	}
	for name, transport := range map[string]edgecloud.Transport{
		"named model": edgecloud.NewHTTPModelTransport(f.URL(), serve.DefaultModelName),
	} {
		edge, err := edgecloud.New(cdln, transport, edgecloud.DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		offloads := 0
		// Batches of 8, so the ring sees several distinct bodies.
		for at := 0; at < len(xs); at += 8 {
			results, err := edge.ClassifyBatchPolicy(xs[at:at+8], core.DeltaPolicy(delta))
			if err != nil {
				t.Fatalf("%s: batch at %d through the router: %v", name, at, err)
			}
			for i, res := range results {
				want := ref.Classify(xs[at+i])
				got := res.Record
				if got.StageIndex != want.StageIndex || got.StageName != want.StageName || got.Label != want.Label ||
					got.Confidence != want.Confidence || got.Ops != want.Ops {
					t.Fatalf("%s: input %d: %+v through the router, oracle %+v", name, at+i, got, want)
				}
				if res.Offloaded {
					offloads++
				}
			}
		}
		if offloads == 0 {
			t.Fatalf("%s: nothing offloaded; the router went unexercised", name)
		}
	}
}

// TestRouterForwardsContentType pins the header itself on both attempts of
// a hedged request: the primary (which stalls) and the hedge (which answers)
// each see the client's Content-Type, and a client that sent none is
// forwarded as JSON, as before.
func TestRouterForwardsContentType(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	first := make(chan struct{}, 1)
	first <- struct{}{}
	backend := func() string {
		mux := probedMux(nil)
		mux.HandleFunc("POST "+resumePath, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			mu.Lock()
			seen = append(seen, r.Header.Get("Content-Type"))
			mu.Unlock()
			select {
			case <-first: // the primary attempt: stall until the hedge wins
				<-r.Context().Done()
				first <- struct{}{}
			default:
				serve.WriteJSON(w, http.StatusOK, serve.V2ClassifyResponse{})
			}
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := New(Config{
		Backends:      []string{backend(), backend()},
		ProbeInterval: 25 * time.Millisecond,
		Hedge:         true,
		HedgeMin:      20 * time.Millisecond,
		HedgeMax:      20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })
	waitReady(t, &testFleet{router: rt, ts: front}, 2)

	for _, tc := range []struct{ sent, want string }{
		{wire.FrameContentType, wire.FrameContentType},
		{"", "application/json"},
	} {
		mu.Lock()
		seen = nil
		mu.Unlock()
		req, err := http.NewRequest(http.MethodPost, front.URL+resumePath, bytes.NewReader([]byte("opaque to the router")))
		if err != nil {
			t.Fatal(err)
		}
		if tc.sent != "" {
			req.Header.Set("Content-Type", tc.sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Content-Type %q: HTTP %d through the router", tc.sent, resp.StatusCode)
		}
		// The stalled primary records before it stalls; wait for its
		// cancellation to hand the token back before the next round.
		deadline := time.Now().Add(5 * time.Second)
		for len(first) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		got := append([]string(nil), seen...)
		mu.Unlock()
		if len(got) != 2 || got[0] != tc.want || got[1] != tc.want {
			t.Errorf("client sent Content-Type %q: the attempts carried %q, want primary and hedge %q", tc.sent, got, tc.want)
		}
	}
}

// TestForwardedBodyOutlivesTheHandler: the router's request body is pooled,
// and an attempt can still be writing it after the handler has returned.
// Every request's first attempt answers 200 in full before it reads its
// body, then stalls. net/http waits up to 50 ms for the body's write
// before it hands the router that answer's end, so the hedge, sent at
// 20 ms, reads and hashes the body and answers first; the handler returns
// and the router reuses its buffers for the next requests while the first
// attempt's write is still under way. Then the stalled attempt reads and
// hashes the rest. Small socket buffers at both ends (tens of KB in
// flight, where loopback's defaults hold megabytes) keep the stalled write
// from finishing into the kernel. Every body a backend reads whole must be
// the one its client sent.
func TestForwardedBodyOutlivesTheHandler(t *testing.T) {
	type sentBody struct {
		digest   [sha256.Size]byte
		seen     int
		answered chan struct{} // closed once the hedge has answered
	}
	var mu sync.Mutex
	sent := map[uint64]*sentBody{} // by the id in a body's first 8 bytes; guarded by mu
	var late atomic.Int64          // stalled attempts that read their body whole
	answer := []byte(`{"results":[]}`)
	backend := func() string {
		mux := probedMux(nil)
		mux.HandleFunc("POST "+resumePath, func(w http.ResponseWriter, r *http.Request) {
			h := sha256.New()
			var head [8]byte
			if _, err := io.ReadFull(io.TeeReader(r.Body, h), head[:]); err != nil {
				return // a cancelled attempt
			}
			id := binary.LittleEndian.Uint64(head[:])
			mu.Lock()
			b := sent[id]
			b.seen++
			first, hedge := b.seen == 1, b.seen == 2
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
			if first {
				// Full duplex, or the server drains the body itself
				// before it writes the answer.
				rc := http.NewResponseController(w)
				if err := rc.EnableFullDuplex(); err != nil {
					t.Error(err)
				}
				_, _ = w.Write(answer)
				_ = rc.Flush()
				select {
				case <-b.answered:
					time.Sleep(5 * time.Millisecond) // the router moves on
				case <-time.After(50 * time.Millisecond): // no hedge: the body fit in flight
				}
			}
			if _, err := io.Copy(h, r.Body); err != nil {
				return // the router abandoned or cancelled the write
			}
			if [sha256.Size]byte(h.Sum(nil)) != b.digest {
				t.Errorf("body %d: a backend read bytes the client did not send", id)
			}
			if first {
				late.Add(1)
			} else {
				_, _ = w.Write(answer)
			}
			if hedge {
				close(b.answered)
			}
		})
		ts := httptest.NewUnstartedServer(mux)
		ts.Listener = smallReadBuffers{ts.Listener}
		ts.Start()
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := New(Config{
		Backends:      []string{backend(), backend()},
		ProbeInterval: 25 * time.Millisecond,
		Hedge:         true,
		HedgeMin:      20 * time.Millisecond,
		HedgeMax:      20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.data.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return c, c.(*net.TCPConn).SetWriteBuffer(socketBuf)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })
	waitReady(t, &testFleet{router: rt, ts: front}, 2)

	const clients, perClient = 3, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				body := make([]byte, 10_000+rng.Intn(390_000))
				rng.Read(body)
				id := uint64(c*perClient + i)
				binary.LittleEndian.PutUint64(body, id)
				mu.Lock()
				sent[id] = &sentBody{digest: sha256.Sum256(body), answered: make(chan struct{})}
				mu.Unlock()
				resp, err := front.Client().Post(front.URL+resumePath, wire.FrameContentType, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("body %d: HTTP %d through the router", id, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	st := routerStats(t, front.URL)
	t.Logf("%d hedges sent, %d won; %d stalled attempts read their body whole", st.HedgesSent, st.HedgeWins, late.Load())
	if st.HedgesSent == 0 || st.HedgeWins+st.HedgeLosses != st.HedgesSent || late.Load() == 0 {
		t.Fatalf("%d hedges sent, %d won, %d lost, %d stalled bodies read whole; want hedges, all resolved, and late reads",
			st.HedgesSent, st.HedgeWins, st.HedgeLosses, late.Load())
	}
}

// smallReadBuffers shrinks the receive buffer of every accepted connection.
type smallReadBuffers struct{ net.Listener }

func (l smallReadBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return c, c.(*net.TCPConn).SetReadBuffer(socketBuf)
}

// socketBuf is the socket buffer size at both ends of a router→backend hop.
const socketBuf = 32 << 10

// BenchmarkRouterForward is the router hop alone: a 10 KB body through the
// router (hedging off, as on the routed-single workload) to one of two
// backends that read and discard it.
func BenchmarkRouterForward(b *testing.B) {
	backend := func() string {
		mux := probedMux(nil)
		mux.HandleFunc("POST "+resumePath, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"results":[]}`))
		})
		ts := httptest.NewServer(mux)
		b.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := New(Config{Backends: []string{backend(), backend()}, ProbeInterval: 25 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(func() { front.Close(); rt.Close() })
	waitReady(b, &testFleet{router: rt, ts: front}, 2)
	body := bytes.Repeat([]byte("0.123456789,"), 10_000/12)
	client := front.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(front.URL+resumePath, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
}
