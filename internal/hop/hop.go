// Package hop carries bodies between tiers: pooled bodies, and the one
// HTTP/1.1 client both outbound hops send them through.
package hop

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
)

const maxPooled = 1 << 20 // the largest buffer a Body keeps in the pool

var bodies = sync.Pool{New: func() any { return new(Body) }}

// Body is recycled when its last reference drops: one per holder, such as
// each attempt of a hedged forward, which can outlive the handler.
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

// Bytes is the body; Set(append(Bytes()[:0], …)) reuses it.
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
