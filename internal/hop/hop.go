// Package hop forwards request bodies between tiers: pooled bodies, pooled copies.
package hop

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
)

const maxPooled = 1 << 20 // the largest buffer a Body keeps in the pool

var bodies = sync.Pool{New: func() any { return new(Body) }}
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// Body is recycled when its last reference drops: the holder's, and each reader's
// until net/http closes it, which can be after Client.Do returns.
type Body struct {
	buf  []byte
	refs atomic.Int32
}

// NewBody returns an empty body holding one reference, the caller's.
func NewBody() *Body {
	b := bodies.Get().(*Body)
	b.buf = b.buf[:0]
	b.refs.Store(1)
	return b
}

// Bytes is the body; Set(append(Bytes()[:0], …)) before Attach reuses it.
func (b *Body) Bytes() []byte { return b.buf }
func (b *Body) Set(p []byte)  { b.buf = p }

// Fill reads r, bounded by the caller, to its end into the body, reserving
// the declared length (≤ maxPooled) so a sized body reads in one pass.
func (b *Body) Fill(r io.Reader, declared int64) error {
	buf := bytes.NewBuffer(b.buf[:0])
	buf.Grow(int(min(max(declared, 0), maxPooled)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	b.buf = buf.Bytes()
	return err
}

// Retain takes a reference for a holder that may outlive the caller;
// Release drops one, recycling the body with the last.
func (b *Body) Retain() { b.refs.Add(1) }
func (b *Body) Release() {
	if b.refs.Add(-1) == 0 && cap(b.buf) <= maxPooled {
		bodies.Put(b)
	}
}

// Attach makes the body req's, with a fresh reader for every GetBody.
func (b *Body) Attach(req *http.Request) {
	req.ContentLength = int64(len(b.buf))
	req.GetBody = func() (io.ReadCloser, error) {
		b.refs.Add(1)
		r := &reader{b: b}
		r.Reset(b.buf)
		return r, nil
	}
	req.Body, _ = req.GetBody()
}

type reader struct {
	bytes.Reader
	b      *Body
	closed atomic.Bool
}

func (r *reader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.b.Release()
	}
	return nil
}

// Dial wraps dial: net/http's io.LimitReader hides a body's WriteTo, so a
// *net.TCPConn allocates ≤ 32 KiB to copy each body; a pooled buffer serves.
func Dial(dial func(ctx context.Context, network, addr string) (net.Conn, error)) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return conn{c}, nil
	}
}

type conn struct{ net.Conn } // its ReadFrom hides the connection's own

func (c conn) ReadFrom(r io.Reader) (int64, error) {
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	return io.CopyBuffer(struct{ io.Writer }{c.Conn}, r, buf[:])
}
