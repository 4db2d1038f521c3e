package protocol

import (
	"bufio"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// Client is a mobile-user (or administrator) connection to a Casper
// protocol server. It is safe for concurrent use.
//
// Requests are pipelined: each carries a request ID, any number (up to
// the in-flight cap) proceed concurrently on the single connection,
// and responses are matched by ID as they arrive — out of order when
// the server finishes them out of order. Every RPC takes a context: its
// deadline bounds the whole round trip, and a request whose context
// expires simply abandons its ID; the connection stays usable for
// every other call.
type Client struct {
	conn net.Conn

	mu      sync.Mutex
	sem     chan struct{}            // in-flight cap
	pending map[uint64]chan delivery // response routing, keyed by request ID
	nextID  uint64                   // last assigned request ID (under mu)
	fatal   error                    // transport-fatal error, fails all calls (under mu)

	// wq feeds the write loop. Capacity equals the in-flight cap and
	// every send happens with a sem slot held, so sends never block;
	// closed (under mu) gates sends once Close has closed the channel.
	wq     chan *[]byte
	closed bool // under mu
}

// delivery is one response (or transport error) handed from the read
// loop to a waiting caller.
type delivery struct {
	resp Response
	err  error
}

// respChPool recycles the buffered per-request response channels; a
// pipelined client burns through one per call.
var respChPool = sync.Pool{
	New: func() any { return make(chan delivery, 1) },
}

// DialOption configures DialContext.
type DialOption func(*dialConfig)

type dialConfig struct {
	timeout     time.Duration
	maxInFlight int
	tls         *tls.Config
}

// DefaultDialTimeout bounds connection establishment (and the
// handshake) when neither the context nor WithDialTimeout imposes a
// tighter deadline.
const DefaultDialTimeout = 10 * time.Second

// WithDialTimeout bounds connection establishment (and the
// handshake); the context's deadline still applies if sooner.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithMaxInFlight caps concurrent in-flight requests on the
// connection (DefaultMaxInFlight when unset). Callers beyond the cap
// block in their RPC until a slot frees.
func WithMaxInFlight(n int) DialOption {
	return func(c *dialConfig) { c.maxInFlight = n }
}

// WithTLSConfig dials the server over TLS with cfg (which is cloned,
// never mutated). A nil ServerName is derived from the dialed
// address's host part. For mutual TLS set Certificates to the client
// certificate; the TLS handshake is bounded by the same deadline as
// connection establishment. nil leaves the connection plaintext.
func WithTLSConfig(cfg *tls.Config) DialOption {
	return func(c *dialConfig) { c.tls = cfg }
}

// DialContext connects to a Casper protocol server. The context (and
// the dial timeout) bound connection establishment and the handshake.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{
		timeout:     DefaultDialTimeout,
		maxInFlight: DefaultMaxInFlight,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxInFlight <= 0 {
		cfg.maxInFlight = DefaultMaxInFlight
	}
	d := net.Dialer{Timeout: cfg.timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol: dial %s: %w", addr, err)
	}
	if cfg.tls != nil {
		tcfg := cfg.tls.Clone()
		if tcfg.ServerName == "" {
			if host, _, herr := net.SplitHostPort(addr); herr == nil {
				tcfg.ServerName = host
			}
		}
		tconn := tls.Client(conn, tcfg)
		hctx := ctx
		if cfg.timeout > 0 {
			var cancel context.CancelFunc
			hctx, cancel = context.WithTimeout(ctx, cfg.timeout)
			defer cancel()
		}
		if err := tconn.HandshakeContext(hctx); err != nil {
			conn.Close()
			return nil, fmt.Errorf("protocol: tls handshake %s: %w", addr, err)
		}
		conn = tconn
	}
	c := &Client{conn: conn}
	if err := c.handshake(ctx, cfg.timeout); err != nil {
		conn.Close()
		return nil, err
	}
	c.sem = make(chan struct{}, cfg.maxInFlight)
	c.pending = make(map[uint64]chan delivery)
	c.wq = make(chan *[]byte, cfg.maxInFlight)
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

// handshake sends hello and expects the same five bytes back (a server
// built with another payload layout names its own revision, and the
// dial fails here rather than on the first mis-decoded frame).
func (c *Client) handshake(ctx context.Context, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return fmt.Errorf("protocol: handshake: %w", err)
	}
	if _, err := c.conn.Write(hello[:]); err != nil {
		return fmt.Errorf("protocol: handshake send: %w", err)
	}
	var reply [handshakeLen]byte
	if _, err := io.ReadFull(c.conn, reply[:]); err != nil {
		return fmt.Errorf("protocol: handshake recv: %w", err)
	}
	if [4]byte(reply[:4]) != [4]byte(hello[:4]) {
		return fmt.Errorf("protocol: handshake reply lacks the CSPR magic (got %q)", reply[:4])
	}
	if reply[4] != binaryRevision {
		return fmt.Errorf("protocol: unsupported version: server speaks binary revision %d, this client %d (both ends must be built from the same release)",
			reply[4], binaryRevision)
	}
	return c.conn.SetDeadline(time.Time{})
}

// Close closes the connection; any in-flight requests fail with the
// close.
func (c *Client) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.wq) // write loop flushes anything queued and exits
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// roundTrip issues one pipelined request: claim an in-flight slot,
// register the request ID, write the frame, and wait for the read
// loop to deliver the matching response. Context expiry abandons the
// ID (the eventual response is discarded) without poisoning the
// connection.
func (c *Client) roundTrip(ctx context.Context, req Request) (Response, error) {
	// An already-canceled context must fail before any bytes hit the
	// wire: the select below picks randomly when both a free slot and
	// ctx.Done() are ready, which would sometimes let a dead request
	// reach the server (and have side effects there).
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
	defer func() { <-c.sem }()

	c.mu.Lock()
	if c.fatal != nil {
		err := c.fatal
		c.mu.Unlock()
		return Response{}, fmt.Errorf("protocol: connection unusable after earlier failure: %w", err)
	}
	c.nextID++
	id := c.nextID
	ch := respChPool.Get().(chan delivery)
	c.pending[id] = ch
	c.mu.Unlock()

	bp, err := encodeRequestFrame(id, &req)
	if err != nil {
		c.abandon(id, ch)
		return Response{}, fmt.Errorf("protocol: %s encode: %w", req.Op, err)
	}
	// Hand the frame to the write loop. The sem slot held above
	// guarantees queue space, so this send never blocks; a write-path
	// failure surfaces on ch via failAll like any transport error.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putFrameBuf(bp)
		c.abandon(id, ch)
		return Response{}, fmt.Errorf("protocol: send: client closed")
	}
	c.wq <- bp
	c.mu.Unlock()

	select {
	case r := <-ch:
		respChPool.Put(ch)
		if r.err != nil {
			return Response{}, fmt.Errorf("protocol: recv: %w", r.err)
		}
		return r.resp, nil
	case <-ctx.Done():
		c.abandon(id, ch)
		return Response{}, ctx.Err()
	}
}

// writeLoop drains queued request frames onto the connection,
// buffering and flushing only when no further frame is immediately
// ready: a burst of concurrent callers (typically woken together by a
// batch of responses) coalesces into one syscall. A write error is
// transport-fatal — it fails every in-flight call and closes the
// connection — after which the loop keeps draining so senders never
// wedge. The loop exits when Close closes the queue.
func (c *Client) writeLoop() {
	bw := bufio.NewWriterSize(c.conn, 64*1024)
	var dead bool
	for bp := range c.wq {
		if dead {
			putFrameBuf(bp)
			continue
		}
		_, err := bw.Write(*bp)
		putFrameBuf(bp)
		if err == nil && len(c.wq) == 0 {
			// Yield once before flushing: callers woken by the same
			// response burst are likely mid-enqueue, and letting them
			// run first turns N flush syscalls into one.
			runtime.Gosched()
			if len(c.wq) == 0 {
				err = bw.Flush()
			}
		}
		if err != nil {
			c.failAll(fmt.Errorf("send: %w", err))
			c.conn.Close()
			dead = true
		}
	}
	if !dead {
		_ = bw.Flush()
	}
}

// abandon forgets a pending request ID (context expiry, encode or
// write failure) and recycles its response channel. Deliveries happen
// under mu (see readLoop and failAll), so once the entry is gone any
// racing delivery is already buffered in ch — the drain below is
// conclusive and the channel re-enters the pool empty. A response
// arriving for a forgotten ID is simply dropped.
func (c *Client) abandon(id uint64, ch chan delivery) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	select {
	case <-ch:
	default:
	}
	respChPool.Put(ch)
}

// failAll marks the connection fatally broken and delivers err to
// every in-flight caller.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.fatal == nil {
		c.fatal = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- delivery{err: err} // buffered; never blocks
	}
	c.mu.Unlock()
}

// readLoop is the demultiplexer: it decodes response frames as
// they arrive and routes each to the caller that registered its
// request ID. Any transport or decode error is fatal to the
// connection (framing can no longer be trusted) and fails all
// in-flight calls.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64*1024)
	var buf []byte
	for {
		id, payload, err := readFrame(br, &buf)
		if err != nil {
			c.failAll(err)
			return
		}
		resp, derr := decodeResponse(payload)
		if derr != nil {
			c.failAll(fmt.Errorf("response frame %d: %w", id, derr))
			c.conn.Close()
			return
		}
		c.mu.Lock()
		if ch, ok := c.pending[id]; ok {
			delete(c.pending, id)
			ch <- delivery{resp: resp} // buffered; never blocks
		}
		// else: the caller gave up (context expiry) — drop it.
		c.mu.Unlock()
	}
}

// call is roundTrip plus application-level error mapping: a non-OK
// response becomes a *WireError whose Unwrap exposes the sentinel
// named by the response's wire code.
func (c *Client) call(ctx context.Context, req Request) (Response, error) {
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return resp, err
	}
	if !resp.OK {
		return resp, &WireError{Op: req.Op, Code: resp.Code, Message: resp.Error}
	}
	return resp, nil
}

// Register registers a mobile user with an exact position and privacy
// profile (k, Amin). Only the anonymizer endpoint ever sees x, y.
func (c *Client) Register(ctx context.Context, uid int64, x, y float64, k int, amin float64) error {
	_, err := c.call(ctx, Request{Op: OpRegister, UserID: uid, X: x, Y: y, K: k, AMin: amin})
	return err
}

// Update sends a location update.
func (c *Client) Update(ctx context.Context, uid int64, x, y float64) error {
	_, err := c.call(ctx, Request{Op: OpUpdate, UserID: uid, X: x, Y: y})
	return err
}

// BatchUpdate sends many location updates in one frame and returns
// how many were applied; on error, updates before the failing one have
// already been applied. The server applies the whole frame through its
// batched update path (one server write lock, one WAL record).
func (c *Client) BatchUpdate(ctx context.Context, updates []BatchUpdate) (int, error) {
	resp, err := c.call(ctx, Request{Op: OpUpdateBatch, Batch: updates})
	if err != nil {
		return int(resp.Count), err
	}
	return int(resp.Count), nil
}

// Deregister removes the user.
func (c *Client) Deregister(ctx context.Context, uid int64) error {
	_, err := c.call(ctx, Request{Op: OpDeregister, UserID: uid})
	return err
}

// SetProfile changes the user's privacy profile.
func (c *Client) SetProfile(ctx context.Context, uid int64, k int, amin float64) error {
	_, err := c.call(ctx, Request{Op: OpSetProfile, UserID: uid, K: k, AMin: amin})
	return err
}

// NNResult is a nearest-neighbor answer as seen by the client.
type NNResult struct {
	Exact      Object
	Candidates []Object
	Cost       Cost
}

// NearestPublic asks "what is my nearest public object?".
func (c *Client) NearestPublic(ctx context.Context, uid int64) (NNResult, error) {
	resp, err := c.call(ctx, Request{Op: OpNearestPublic, UserID: uid})
	return nnResult(resp, err)
}

// NearestBuddy asks "where is my nearest (cloaked) buddy?".
func (c *Client) NearestBuddy(ctx context.Context, uid int64) (NNResult, error) {
	resp, err := c.call(ctx, Request{Op: OpNearestBuddy, UserID: uid})
	return nnResult(resp, err)
}

func nnResult(resp Response, err error) (NNResult, error) {
	if err != nil {
		return NNResult{}, err
	}
	out := NNResult{Candidates: resp.Candidates}
	if resp.Exact != nil {
		out.Exact = *resp.Exact
	}
	if resp.Cost != nil {
		out.Cost = *resp.Cost
	}
	return out, nil
}

// KNearestPublic asks for the user's k nearest public objects,
// refined exactly and returned in ascending distance order.
func (c *Client) KNearestPublic(ctx context.Context, uid int64, k int) ([]Object, Cost, error) {
	resp, err := c.call(ctx, Request{Op: OpKNearestPublic, UserID: uid, NN: k})
	if err != nil {
		return nil, Cost{}, err
	}
	var cost Cost
	if resp.Cost != nil {
		cost = *resp.Cost
	}
	return resp.Candidates, cost, nil
}

// RangePublic asks for all public objects within radius of the user.
func (c *Client) RangePublic(ctx context.Context, uid int64, radius float64) ([]Object, Cost, error) {
	resp, err := c.call(ctx, Request{Op: OpRangePublic, UserID: uid, Radius: radius})
	if err != nil {
		return nil, Cost{}, err
	}
	var cost Cost
	if resp.Cost != nil {
		cost = *resp.Cost
	}
	return resp.Candidates, cost, nil
}

// CountUsers is the administrator query: how many users in the region,
// under policy "any-overlap", "center-in" or "fractional" ("" means
// any-overlap).
func (c *Client) CountUsers(ctx context.Context, r Rect, policy string) (float64, error) {
	resp, err := c.call(ctx, Request{Op: OpCountUsers, Rect: &r, Policy: policy})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// AddPublic registers a public object (no anonymity).
func (c *Client) AddPublic(ctx context.Context, id int64, x, y float64, name string) error {
	_, err := c.call(ctx, Request{Op: OpAddPublic, PubID: id, X: x, Y: y, Name: name})
	return err
}

// Density fetches the administrator's n x n expected-count density
// map of the registered population ([0] is the bottom row; n=0 means
// the server default of 16).
func (c *Client) Density(ctx context.Context, n int) ([][]float64, error) {
	resp, err := c.call(ctx, Request{Op: OpDensity, NN: n})
	if err != nil {
		return nil, err
	}
	return resp.Density, nil
}

// Raw sends an arbitrary request (testing and debugging).
func (c *Client) Raw(ctx context.Context, req Request) (Response, error) {
	return c.roundTrip(ctx, req)
}
