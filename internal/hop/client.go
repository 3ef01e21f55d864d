package hop

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// idleTTL retires an idle connection before serve's 60 s IdleTimeout can
// close it under a request.
const idleTTL = 30 * time.Second

var errTooLarge = errors.New("answer over the client's bound")

// Client is the HTTP/1.1 client of both data hops, the router's forwards
// and the edge's offloads: each Do is one round trip on the caller's
// goroutine over a per-host pool of idle connections, so a request body is
// the caller's again when Do returns.
type Client struct {
	// Dial opens an http:// connection under a context that ends at the
	// request's deadline; nil dials with a 5 s timeout.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)

	max     int64       // the largest answer Do reads
	tls     *tls.Config // nil trusts the system's roots
	perHost int
	mu      sync.Mutex
	idle    map[string][]*conn // by scheme://host, newest last; guarded by mu
}

// NewClient returns a client that refuses answers over maxAnswer bytes and
// keeps up to 2×GOMAXPROCS idle connections per host.
func NewClient(maxAnswer int64) *Client {
	return &Client{max: maxAnswer, perHost: 2 * runtime.GOMAXPROCS(0), idle: map[string][]*conn{}}
}

// Request is one round trip: Base is an http:// or https:// URL, with or
// without a path prefix, and Path the target under it. ContentType and
// TraceID (X-Trace-Id) are sent when set; Timeout caps ctx's deadline.
type Request struct {
	Method, Base, Path, ContentType, TraceID string
	Body                                     []byte
	Timeout                                  time.Duration
}

// Response is an answer read whole; the caller releases its pooled Body.
type Response struct {
	Status                  int
	ContentType, RetryAfter string
	Body                    *Body
}

type conn struct {
	net.Conn
	br    *bufio.Reader
	head  []byte
	iov   [2][]byte
	vec   net.Buffers
	lr    io.LimitedReader
	close func() // Conn.Close, bound once for context.AfterFunc
	idle  time.Time
	rc    syscall.RawConn // nil when alive cannot look at the socket
	probe func(fd uintptr) bool
	open  bool
	one   [1]byte
}

// Do sends req and reads its answer under the deadline, which also bounds
// the dial; a cancelled ctx closes the connection. An answer that follows a
// failed write (a server that refused before reading the body) is still
// returned. Do never sends a request twice: a pooled connection the server
// has closed is dropped before use instead.
func (c *Client) Do(ctx context.Context, req *Request) (Response, error) {
	scheme, rest, _ := strings.Cut(req.Base, "://")
	host, _, _ := strings.Cut(rest, "/")
	deadline, _ := ctx.Deadline()
	if d := time.Now().Add(req.Timeout); req.Timeout > 0 && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	key := req.Base[:len(req.Base)-len(rest)+len(host)]
	var cn *conn
	var err error
	if scheme != "http" && scheme != "https" || host == "" {
		err = errors.New("not an http(s) URL with a host")
	} else if cn = c.get(key); cn == nil {
		cn, err = c.dial(ctx, scheme, host, deadline)
	}
	if err == nil {
		var resp Response
		var keep bool
		if resp, keep, err = cn.exchange(ctx, req, host, strings.TrimSuffix(rest[len(host):], "/"), deadline, c.max); err == nil {
			c.put(key, cn, keep)
			return resp, nil
		}
		cn.Close()
	}
	if d, ok := ctx.Deadline(); ctx.Err() != nil || ok && !time.Now().Before(d) {
		err = cmp.Or(ctx.Err(), context.DeadlineExceeded) // the connection's clock can fire first
	}
	return Response{}, fmt.Errorf("%s %s%s: %w", req.Method, req.Base, req.Path, err)
}

// exchange is one request and its answer on cn; keep reports whether cn
// may serve another request.
func (cn *conn) exchange(ctx context.Context, req *Request, host, prefix string, deadline time.Time, limit int64) (resp Response, keep bool, err error) {
	if err := cn.SetDeadline(deadline); err != nil {
		return resp, false, err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, cn.close)
		defer func() { keep = stop() && keep }()
	}
	h := append(append(append(append(cn.head[:0], req.Method...), ' '), prefix...), req.Path...)
	h = append(append(append(h, " HTTP/1.1\r\nHost: "...), host...), "\r\n"...)
	if req.ContentType != "" {
		h = append(append(append(h, "Content-Type: "...), req.ContentType...), "\r\n"...)
	}
	if len(req.Body) > 0 || req.Method != "GET" {
		h = append(strconv.AppendInt(append(h, "Content-Length: "...), int64(len(req.Body)), 10), "\r\n"...)
	}
	if req.TraceID != "" {
		h = append(append(append(h, "X-Trace-Id: "...), req.TraceID...), "\r\n"...)
	}
	cn.head = append(h, "\r\n"...)
	cn.iov = [2][]byte{cn.head, req.Body}
	cn.vec = cn.iov[:]
	_, werr := cn.vec.WriteTo(cn.Conn)
	cn.iov = [2][]byte{} // the body is the caller's again
	if _, err := cn.br.Peek(1); err != nil {
		return resp, false, cmp.Or(werr, err)
	}
	resp, keep, err = cn.read(limit)
	return resp, keep && werr == nil, err
}

// read reads the status line, the headers a caller uses and a sized,
// chunked or close-delimited body of at most limit bytes.
func (cn *conn) read(limit int64) (resp Response, keep bool, err error) {
	line, err := cn.line()
	if err == nil && len(line) >= 12 && bytes.HasPrefix(line, []byte("HTTP/1.")) {
		resp.Status, _ = strconv.Atoi(string(line[9:12]))
	}
	if resp.Status < 100 {
		return Response{}, false, cmp.Or(err, fmt.Errorf("malformed status line %q", line))
	}
	keep, size, chunked := line[7] == '1', int64(-1), false
	for err == nil {
		if line, err = cn.line(); err != nil || len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		switch value = bytes.TrimSpace(value); {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if size, err = strconv.ParseInt(string(value), 10, 64); err != nil || size < 0 {
				err = fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = keep && !bytes.EqualFold(value, []byte("close"))
		case bytes.EqualFold(name, []byte("Content-Type")):
			resp.ContentType = string(value)
		case bytes.EqualFold(name, []byte("Retry-After")):
			resp.RetryAfter = string(value)
		}
	}
	cn.lr = io.LimitedReader{R: cn.br, N: limit + 1}
	switch {
	case err != nil:
		return Response{}, false, err
	case chunked:
		cn.lr.R = httputil.NewChunkedReader(cn.br)
	case size > limit:
		return Response{}, false, errTooLarge
	case size >= 0:
		cn.lr.N = size
	default:
		keep = false // delimited by the close
	}
	resp.Body = NewBody()
	err = resp.Body.Fill(&cn.lr, size)
	if n := int64(len(resp.Body.Bytes())); err == nil && n > limit {
		err = errTooLarge
	} else if err == nil && !chunked && n < size {
		err = io.ErrUnexpectedEOF
	}
	for chunked && err == nil { // the trailers, up to a blank line
		if line, err = cn.line(); len(line) == 0 {
			break
		}
	}
	if err != nil {
		resp.Body.Release()
		return Response{}, false, err
	}
	return resp, keep, nil
}

// line reads a header line without its CRLF, valid until the next read.
func (cn *conn) line() ([]byte, error) {
	line, err := cn.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		err = errors.New("header line too long")
	}
	return bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r")), err
}

// get pops key's newest idle connection that has not outlived idleTTL and
// is still open.
func (c *Client) get(key string) *conn {
	for {
		c.mu.Lock()
		pool := c.idle[key]
		if len(pool) == 0 {
			c.mu.Unlock()
			return nil
		}
		cn := pool[len(pool)-1]
		pool[len(pool)-1], c.idle[key] = nil, pool[:len(pool)-1]
		c.mu.Unlock()
		if time.Since(cn.idle) < idleTTL && cn.alive() {
			return cn
		}
		cn.Close()
	}
}

// put pools cn when it may be kept and key's pool has room, else closes it.
func (c *Client) put(key string, cn *conn, keep bool) {
	cn.idle = time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if pool := c.idle[key]; keep && len(pool) < c.perHost {
		c.idle[key] = append(pool, cn)
		return
	}
	cn.Close()
}

// CloseIdle closes every pooled connection.
func (c *Client) CloseIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pool := range c.idle {
		for _, cn := range pool {
			cn.Close()
		}
	}
	clear(c.idle)
}

var defaultDialer = &net.Dialer{Timeout: 5 * time.Second}

// dial connects to host by the deadline, through TLS for https (whose
// dialer is its own).
func (c *Client) dial(ctx context.Context, scheme, host string, deadline time.Time) (*conn, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	addr := host
	if _, _, err := net.SplitHostPort(host); err != nil {
		addr = net.JoinHostPort(strings.Trim(host, "[]"), map[string]string{"http": "80", "https": "443"}[scheme])
	}
	dial := c.Dial
	if scheme == "https" {
		dial = (&tls.Dialer{NetDialer: defaultDialer, Config: c.tls}).DialContext
	} else if dial == nil {
		dial = defaultDialer.DialContext
	}
	nc, err := dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	cn := &conn{Conn: nc, br: bufio.NewReader(nc), close: func() { nc.Close() }}
	cn.probe = func(fd uintptr) bool { cn.open = quiet(fd, cn.one[:]); return true }
	raw := nc
	if t, ok := nc.(*tls.Conn); ok {
		raw = t.NetConn()
	}
	if sc, ok := raw.(syscall.Conn); ok {
		cn.rc, _ = sc.SyscallConn()
	}
	return cn, nil
}

// alive reports whether an idle connection can carry a request: one
// non-blocking read of its socket finds neither the server's close nor a
// stray byte. A closed keep-alive is so dropped before a request goes out
// on it; a failure after the write could be a server that read it whole.
func (cn *conn) alive() bool {
	// A deadline that has passed would refuse the read unattempted.
	return cn.rc == nil || cn.SetReadDeadline(time.Time{}) == nil && cn.rc.Read(cn.probe) == nil && cn.open
}
