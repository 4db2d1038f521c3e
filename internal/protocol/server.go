package protocol

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
	"casper/internal/server"
	"casper/internal/trace"
)

// MaxFrameBytes is the hard per-frame limit: a request frame longer
// than this drops the connection rather than buffering unboundedly.
const MaxFrameBytes = 1 << 20

// DefaultIdleTimeout disconnects clients that send nothing for this
// long; zero disables the deadline.
const DefaultIdleTimeout = 5 * time.Minute

// DefaultWriteTimeout bounds how long one response frame may take to
// flush; zero disables the deadline. A client that stops draining its
// socket otherwise parks the connection's writer forever.
const DefaultWriteTimeout = 30 * time.Second

// DefaultMaxInFlight bounds how many requests one connection may
// have dispatched concurrently; further frames queue in the socket
// (back-pressure) rather than spawning unbounded work.
const DefaultMaxInFlight = 64

// Server serves the Casper protocol over TCP. One instance hosts both
// roles of Fig. 1 — the anonymizer endpoint for mobile users and the
// administrator endpoint for public queries — while preserving the
// internal trust boundary (the DB server half never sees identities or
// exact positions).
//
// Requests run concurrently, across connections and within one:
// core.Casper is safe for concurrent use, and every frame carries a
// request id, so a connection's responses go back as they complete —
// out of order when queries finish out of order.
//
// Lifecycle: Shutdown(ctx) drains gracefully — the listener closes,
// idle connections are woken via an immediate read deadline and cut,
// in-flight requests finish and their responses flush, and only when
// ctx expires are surviving connections force-closed. Close is the
// immediate-deadline wrapper. Admission control (SetRateLimit,
// SetMaxConcurrent) sheds excess load with the retryable "overloaded"
// wire code before a request does any work.
type Server struct {
	casper *core.Casper
	ln     net.Listener
	logger *slog.Logger

	// IdleTimeout bounds how long a connection may stay silent; set
	// before Listen. Zero disables it.
	IdleTimeout time.Duration

	// WriteTimeout bounds how long each response frame may take to
	// flush to the client; set before Listen. Zero disables it.
	// Timeouts close the connection and count as "write_timeout" in
	// casper_rpc_errors_total.
	WriteTimeout time.Duration

	// MaxInFlight caps concurrently dispatched requests per connection
	// (DefaultMaxInFlight when zero); set before Listen.
	MaxInFlight int

	// TLSConfig, when non-nil, makes Listen serve TLS on the port it
	// binds (clients dial with WithTLSConfig). For mutual TLS set
	// ClientCAs and ClientAuth (tls.RequireAndVerifyClientCert), and
	// only holders of a CA-signed client certificate get past the
	// handshake. Set before Listen; Serve ignores it (wrap the
	// listener yourself).
	TLSConfig *tls.Config

	// slowQuery is the live slow-query threshold (nanoseconds), read
	// per request and swapped atomically by SetSlowQueryThreshold so
	// hot config reload needs no restart.
	slowQuery atomic.Int64

	// adm is the admission-control state: per-user token buckets and
	// the global in-flight ceiling.
	adm admission

	// connMu guards conns and shuttingDown. Every served connection
	// registers here so Shutdown can wake idle readers (read-deadline
	// nudge) and, past the drain deadline, force-close stragglers.
	connMu       sync.Mutex
	conns        map[net.Conn]struct{}
	shuttingDown bool

	// dispatchHook, when non-nil, runs at the top of every dispatch.
	// Test seam: lifecycle tests park requests here to hold them
	// in-flight across a Shutdown. Set before Listen.
	dispatchHook func(Request)

	wg       sync.WaitGroup
	closed   chan struct{}
	closeOne sync.Once
}

// NewServer wraps a core framework instance.
func NewServer(c *core.Casper) *Server {
	s := &Server{
		casper:       c,
		logger:       slog.Default(),
		IdleTimeout:  DefaultIdleTimeout,
		WriteTimeout: DefaultWriteTimeout,
		conns:        make(map[net.Conn]struct{}),
		closed:       make(chan struct{}),
	}
	s.adm.init()
	return s
}

// Casper returns the framework instance this server fronts, for
// runtime operations (backend hot reload) that act on the framework
// rather than the wire layer.
func (s *Server) Casper() *core.Casper { return s.casper }

// SetSlowQueryThreshold sets the slow-query log threshold: every
// request that takes longer than d to answer is logged, with the
// cloak/query breakdown when the op produced one, so latency
// outliers are attributable. Zero (the default) disables the log. Safe
// to call while serving (hot config reload).
func (s *Server) SetSlowQueryThreshold(d time.Duration) { s.slowQuery.Store(int64(d)) }

// SlowQuery reports the live slow-query threshold.
func (s *Server) SlowQuery() time.Duration { return time.Duration(s.slowQuery.Load()) }

// SetLogger overrides the server's structured logger.
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// Listen starts accepting on addr (e.g. "127.0.0.1:7467") and returns
// the bound address, which is useful with a ":0" wildcard port. With
// TLSConfig set, the port serves TLS.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if s.TLSConfig != nil {
		ln = tls.NewListener(ln, s.TLSConfig)
	}
	return s.Serve(ln), nil
}

// Serve starts accepting on a caller-provided listener, which joins
// the server's lifecycle: Shutdown/Close closes it. Listen is the
// common path; Serve exists for custom listeners (tests inject
// fault-injecting ones).
func (s *Server) Serve(ln net.Listener) net.Addr {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr()
}

// Shutdown drains the server gracefully: stop accepting, wake idle
// connections with an immediate read deadline (they are cut; a
// request already dispatched is not), let in-flight requests finish
// and their responses flush, and — only once ctx is done — force-close
// whatever connections remain. It returns nil when the drain completed
// before the deadline, otherwise ctx's error after the force-close.
//
// Requests sitting unread in a connection's socket buffer at drain
// time are not served; from the client they look like a dropped
// connection, exactly as if the server had restarted a moment earlier.
// Safe to call more than once and concurrently with Close.
func (s *Server) Shutdown(ctx context.Context) error {
	var lnErr error
	s.closeOne.Do(func() {
		close(s.closed)
		if s.ln != nil {
			lnErr = s.ln.Close()
		}
	})
	drainingGauge.Set(1)
	// Flag and nudge under one lock: a connection registering after the
	// flag is turned away in trackConn; every one registered before is
	// woken here. No connection can slip between the two.
	s.connMu.Lock()
	s.shuttingDown = true
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Unix(1, 0))
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return lnErr
	case <-ctx.Done():
	}
	s.connMu.Lock()
	for c := range s.conns {
		connsForceClosed.Inc()
		_ = c.Close()
	}
	s.connMu.Unlock()
	<-done
	return ctx.Err()
}

// Close shuts down immediately: Shutdown with an already-expired
// deadline, so idle and in-flight connections alike are force-closed.
// Use Shutdown to drain.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		// The force-close is Close's contract, not a failure.
		return nil
	}
	return err
}

// trackConn registers a served connection for Shutdown's nudge and
// force-close passes; false means the server is already draining and
// the connection must be dropped unserved.
func (s *Server) trackConn(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.shuttingDown {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient failure — EMFILE under fd exhaustion, a client
			// resetting mid-accept — must not kill the listener while
			// open connections keep the process looking alive. Retry
			// with capped exponential backoff; only a closed listener
			// ends the loop.
			acceptErrors.Inc()
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else {
				backoff *= 2
				if backoff > time.Second {
					backoff = time.Second
				}
			}
			s.logger.Warn("casper/protocol: accept failed; retrying",
				"err", err, "backoff", backoff)
			select {
			case <-s.closed:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// countedConn threads every read and write through the wire byte
// counters.
type countedConn struct {
	net.Conn
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		bytesIn.Add(int64(n))
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		bytesOut.Add(int64(n))
	}
	return n, err
}

// handleConn serves one client connection. The client speaks first:
// its five bytes are read under the idle deadline and answered with
// this build's hello whatever they were, and the connection is served
// only when they equal that hello. One comparison turns away a client
// of another binary revision and a stray JSON line alike; the refused
// peer still learns which revision it would have needed.
func (s *Server) handleConn(rawConn net.Conn) {
	conn := &countedConn{Conn: rawConn}
	defer conn.Close()
	if !s.trackConn(conn) {
		return // raced the drain; never served
	}
	defer s.untrackConn(conn)
	connsTotal.Inc()
	connsOpen.Add(1)
	defer connsOpen.Add(-1)
	br := bufio.NewReaderSize(conn, 64*1024)
	if s.IdleTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
			return
		}
	}
	var got [handshakeLen]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return
	}
	if s.WriteTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout)); err != nil {
			return
		}
	}
	if _, err := conn.Write(hello[:]); err != nil {
		return
	}
	if got != hello {
		s.logger.Warn("casper/protocol: rejecting connection: handshake mismatch",
			"remote", conn.RemoteAddr().String(), "got", string(got[:]),
			"server_revision", binaryRevision)
		return
	}
	s.serveFrames(conn, br)
}

// outFrame is one response headed for a connection's writer.
type outFrame struct {
	id      uint64
	resp    Response
	tr      *trace.Trace
	started time.Time // decode start, anchoring the trace total
	slow    bool
}

// serveFrames runs the frame loop of one connection: length-prefixed
// frames with per-request IDs. Up to MaxInFlight requests dispatch
// concurrently and a dedicated writer returns responses as they
// complete — out of order when queries finish out of order — so a
// single connection pipelines. Frame boundaries are explicit, so a
// malformed payload costs one error response (matched to its request
// id) and the stream stays synchronized; oversized frames drop the
// connection.
func (s *Server) serveFrames(conn net.Conn, br *bufio.Reader) {
	maxInFlight := s.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	out := make(chan outFrame, maxInFlight)
	writerDone := make(chan struct{})
	go s.writeLoop(conn, out, writerDone)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	var readBuf []byte
	// Re-arming the idle deadline is a syscall; doing it per frame
	// would dominate small-request pipelines. Re-arm at most once per
	// second — idle timeouts are orders of magnitude coarser.
	var lastArm time.Time
readLoop:
	for {
		select {
		case <-s.closed:
			break readLoop
		default:
		}
		if s.IdleTimeout > 0 {
			if now := time.Now(); now.Sub(lastArm) >= time.Second {
				if err := conn.SetReadDeadline(now.Add(s.IdleTimeout)); err != nil {
					break readLoop
				}
				lastArm = now
			}
		}
		id, payload, err := readFrame(br, &readBuf)
		if err != nil {
			if errors.Is(err, errFrameTooLarge) {
				s.logger.Warn("casper/protocol: dropping connection: frame exceeds limit",
					"remote", conn.RemoteAddr().String(), "max_bytes", MaxFrameBytes)
			}
			break readLoop
		}
		decodeStart := time.Now()
		req, derr := decodeRequest(payload)
		if derr != nil {
			rpcMalformed.Inc()
			out <- outFrame{id: id, resp: errResponse("malformed request: %v", derr), started: decodeStart}
			continue
		}
		req.TraceID = trace.ClampID(req.TraceID)
		var tr *trace.Trace
		if trace.Enabled() {
			tr = trace.NewAt(req.Op, req.TraceID, decodeStart)
			tr.RecordSpan("decode", decodeStart, time.Since(decodeStart))
		}
		// Admission runs before the per-connection dispatch slot: a shed
		// costs one error frame, never a sem wait or a goroutine.
		if reason := s.adm.admit(req.UserID); reason != "" {
			resp := s.shedResponse(req.Op, reason, tr, decodeStart)
			observeRPC(req.Op, time.Since(decodeStart).Seconds(), resp)
			if tr != nil {
				resp.TraceID = tr.ID
			} else {
				resp.TraceID = req.TraceID
			}
			out <- outFrame{id: id, resp: resp, tr: tr, started: decodeStart}
			continue
		}
		sem <- struct{}{}
		framesInFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem; framesInFlight.Add(-1) }()
			start := time.Now()
			resp := s.dispatch(req, tr)
			// The admission slot is freed before the answer is queued, so
			// a client that sends its next request on seeing this one's
			// answer never finds the slot still held by it.
			s.adm.release()
			elapsed := time.Since(start)
			observeRPC(req.Op, elapsed.Seconds(), resp)
			if tr != nil {
				resp.TraceID = tr.ID
			} else {
				resp.TraceID = req.TraceID // still echo the correlation ID
			}
			thr := s.SlowQuery()
			slow := thr > 0 && elapsed > thr
			if slow {
				s.logSlow(req, resp, elapsed)
			}
			out <- outFrame{id: id, resp: resp, tr: tr, started: decodeStart, slow: slow}
		}()
	}
	wg.Wait()
	close(out)
	<-writerDone
}

// writeLoop drains completed responses onto the connection. Writes are
// buffered and flushed only when no further response is immediately
// ready, so a pipelined burst coalesces into few syscalls. On a write
// failure it closes the connection (unblocking the read loop) and
// keeps draining so dispatch goroutines never wedge on the channel.
func (s *Server) writeLoop(conn net.Conn, out <-chan outFrame, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, 64*1024)
	var dead bool
	// Like the read side, the write deadline is re-armed at most once
	// per second (a frame's effective deadline is WriteTimeout plus up
	// to a second), keeping the per-frame cost to buffered writes.
	var lastArm time.Time
	for o := range out {
		if dead {
			s.finishTrace(o)
			continue
		}
		encStart := time.Now()
		bp, err := encodeResponseFrame(o.id, &o.resp)
		if err != nil {
			// The answer does not fit one frame. Only this request fails:
			// it gets a coded error under its own id. That reply is a
			// fixed message plus the trace id, which the read loop clamped
			// (trace.ClampID), so it fits; were it ever not to, the
			// connection is surrendered rather than written to.
			tooLarge := errFrom(fmt.Errorf("%w: %v", ErrResponseTooLarge, err))
			tooLarge.TraceID = o.resp.TraceID
			o.resp = tooLarge
			rpcErrors.With(CodeResponseTooLarge).Inc()
			if bp, err = encodeResponseFrame(o.id, &o.resp); err != nil {
				s.logger.Error("casper/protocol: dropping connection: error reply exceeds frame limit",
					"remote", conn.RemoteAddr().String(), "err", err)
				dead = true
				conn.Close()
				o.tr.RecordSpan("encode", encStart, time.Since(encStart))
				s.finishTrace(o)
				continue
			}
		}
		// The encode span ends here; buffering the frame, the yield and
		// the flush syscall are the write span.
		writeStart := time.Now()
		o.tr.RecordSpan("encode", encStart, writeStart.Sub(encStart))
		if s.WriteTimeout > 0 && writeStart.Sub(lastArm) >= time.Second {
			if err := conn.SetWriteDeadline(writeStart.Add(s.WriteTimeout)); err != nil {
				dead = true
			}
			lastArm = writeStart
		}
		var werr error
		if !dead {
			_, werr = bw.Write(*bp)
			if werr == nil && len(out) == 0 {
				// Yield before flushing: dispatchers completing in the
				// same burst get to enqueue their responses first, so
				// the burst leaves in one syscall instead of N.
				runtime.Gosched()
				if len(out) == 0 {
					werr = bw.Flush()
				}
			}
		}
		putFrameBuf(bp)
		o.tr.RecordSpan("write", writeStart, time.Since(writeStart))
		s.finishTrace(o)
		if werr != nil {
			var nerr net.Error
			if errors.As(werr, &nerr) && nerr.Timeout() {
				rpcErrors.With("write_timeout").Inc()
				s.logger.Warn("casper/protocol: dropping connection: response write exceeded deadline",
					"remote", conn.RemoteAddr().String(), "timeout", s.WriteTimeout,
					"trace_id", o.resp.TraceID)
			}
			dead = true
			conn.Close()
		}
	}
	if !dead {
		if s.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		_ = bw.Flush()
	}
}

// finishTrace applies the retention policy: slow and errored requests
// are always kept, the rest are head-sampled. Published traces are
// immutable and never return to the pool.
func (s *Server) finishTrace(o outFrame) {
	if o.tr == nil {
		return
	}
	o.tr.Finish(time.Since(o.started), o.resp.Error, o.resp.Code, o.slow)
	if o.slow || !o.resp.OK || trace.HeadSample() {
		trace.Publish(o.tr)
	} else {
		trace.Recycle(o.tr)
	}
}

// shedResponse builds the retryable overloaded error frame for a
// request refused by admission control, counting the shed and marking
// the trace with a "shed" span (an errored response is always retained
// in the ring, so shed traffic is visible at /debug/traces).
func (s *Server) shedResponse(op, reason string, tr *trace.Trace, at time.Time) Response {
	shedTotal.With(reason).Inc()
	if tr != nil {
		tr.RecordSpan("shed", at, 0, trace.Str("reason", reason))
	}
	return errFrom(fmt.Errorf("%w: %s shed by %s", ErrOverloaded, op, reason))
}

func (s *Server) dispatch(req Request, tr *trace.Trace) Response {
	if h := s.dispatchHook; h != nil {
		h(req)
	}
	// ops routes the anonymizer-path operations through a traced view
	// of the framework; with tr == nil it is exactly the plain API.
	ops := s.casper.Traced(tr)
	switch req.Op {
	case OpRegister:
		err := ops.RegisterUser(
			anonymizer.UserID(req.UserID),
			geom.Pt(req.X, req.Y),
			anonymizer.Profile{K: req.K, AMin: req.AMin},
		)
		return okOrErr(err)
	case OpUpdate:
		return okOrErr(ops.UpdateUser(anonymizer.UserID(req.UserID), geom.Pt(req.X, req.Y)))
	case OpUpdateBatch:
		updates := make([]core.UserUpdate, len(req.Batch))
		for i, u := range req.Batch {
			updates[i] = core.UserUpdate{UID: anonymizer.UserID(u.UserID), Pos: geom.Pt(u.X, u.Y)}
		}
		applied, err := ops.UpdateUsers(updates)
		if err != nil {
			resp := errFrom(err)
			resp.Count = float64(applied)
			return resp
		}
		return Response{OK: true, Count: float64(applied)}
	case OpDeregister:
		return okOrErr(s.casper.DeregisterUser(anonymizer.UserID(req.UserID)))
	case OpSetProfile:
		return okOrErr(ops.SetProfile(
			anonymizer.UserID(req.UserID),
			anonymizer.Profile{K: req.K, AMin: req.AMin},
		))
	case OpNearestPublic:
		ans, err := ops.NearestPublic(anonymizer.UserID(req.UserID))
		if err != nil {
			return errFrom(err)
		}
		return nnResponse(ans)
	case OpNearestBuddy:
		ans, err := ops.NearestBuddy(anonymizer.UserID(req.UserID))
		if err != nil {
			return errFrom(err)
		}
		return nnResponse(ans)
	case OpKNearestPublic:
		items, cost, err := ops.KNearestPublic(anonymizer.UserID(req.UserID), req.NN)
		if err != nil {
			return errFrom(err)
		}
		return Response{OK: true, Cost: costWire(cost), Candidates: objectsWire(items)}
	case OpRangePublic:
		items, cost, err := ops.RangePublic(anonymizer.UserID(req.UserID), req.Radius)
		if err != nil {
			return errFrom(err)
		}
		resp := Response{OK: true, Cost: costWire(cost)}
		resp.Candidates = objectsWire(items)
		return resp
	case OpCountUsers:
		if req.Rect == nil {
			return errResponse("count_users requires rect")
		}
		policy, err := parsePolicy(req.Policy)
		if err != nil {
			return errFrom(err)
		}
		n, err := s.casper.CountUsersIn(req.Rect.ToGeom(), policy)
		if err != nil {
			return errFrom(err)
		}
		return Response{OK: true, Count: n}
	case OpAddPublic:
		err := s.casper.AddPublicObject(server.PublicObject{
			ID:   req.PubID,
			Pos:  geom.Pt(req.X, req.Y),
			Name: req.Name,
		})
		return okOrErr(err)
	case OpDensity:
		n := req.NN
		if n == 0 {
			n = 16
		}
		if !densityFits(n) {
			// Refused before the grid is computed: its n² cells would be
			// allocated only for the writer to withhold the answer.
			return errFrom(fmt.Errorf("%w: a %d x %d density grid exceeds the %d-byte frame limit",
				ErrResponseTooLarge, n, n, MaxFrameBytes))
		}
		grid, err := s.casper.UserDensityGrid(n)
		if err != nil {
			return errFrom(err)
		}
		return Response{OK: true, Density: grid}
	default:
		return errFrom(fmt.Errorf("%w %q", ErrUnknownOp, req.Op))
	}
}

// logSlow is the slow-query log: one line per request over the
// threshold, carrying the measured cloak and query times and the
// candidate count when the op produced them, so outliers are
// attributable to a stage.
func (s *Server) logSlow(req Request, resp Response, elapsed time.Duration) {
	rpcSlow.Inc()
	outcome := "ok"
	if !resp.OK {
		outcome = "err"
		if resp.Code != "" {
			outcome = resp.Code
		}
	}
	attrs := make([]any, 0, 20)
	attrs = append(attrs,
		"op", req.Op, "uid", req.UserID, "took", elapsed, "outcome", outcome,
		"trace_id", resp.TraceID, "backend", s.casper.Backend())
	if resp.Cost != nil {
		attrs = append(attrs,
			"cloak", time.Duration(resp.Cost.CloakNS),
			"query", time.Duration(resp.Cost.QueryNS),
			"candidates", resp.Cost.Candidates)
	}
	s.logger.Warn("casper/protocol: slow query", attrs...)
}

func okOrErr(err error) Response {
	if err != nil {
		return errFrom(err)
	}
	return Response{OK: true}
}

func nnResponse(ans core.NNAnswer) Response {
	resp := Response{OK: true, Cost: costWire(ans.Cost)}
	resp.Candidates = objectsWire(ans.Candidates)
	ex := objectWire(ans.Exact)
	resp.Exact = &ex
	return resp
}

func costWire(b core.Breakdown) *Cost {
	return &Cost{
		CloakNS:    b.Cloak.Nanoseconds(),
		QueryNS:    b.Query.Nanoseconds(),
		Candidates: b.Candidates,
	}
}

func objectsWire(items []rtree.Item) []Object {
	out := make([]Object, len(items))
	for i, it := range items {
		out[i] = objectWire(it)
	}
	return out
}

func objectWire(it rtree.Item) Object {
	o := Object{ID: it.ID, Rect: FromGeom(it.Rect)}
	if name, ok := it.Data.(string); ok {
		o.Name = name
	}
	return o
}

func parsePolicy(s string) (privacyqp.CountPolicy, error) {
	switch s {
	case "", "any-overlap":
		return privacyqp.CountAnyOverlap, nil
	case "center-in":
		return privacyqp.CountCenterIn, nil
	case "fractional":
		return privacyqp.CountFractional, nil
	default:
		return 0, fmt.Errorf("unknown count policy %q", s)
	}
}
