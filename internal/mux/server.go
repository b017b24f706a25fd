package mux

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wireproto"
)

// BatchFunc answers one batch: fill out[i] with the answer for
// pairs[i]. trace is the propagated trace ID ("" when the client sent
// none). pairs and out are scratch owned by the transport — valid only
// until the call returns. Returning *Fail sends that status in-band;
// any other error becomes a 500 (or 503 when ctx is done).
type BatchFunc func(ctx context.Context, trace string, pairs [][2]uint32, out []bool) error

// SingleFunc answers one single query (a request frame flagged single):
// whether u reaches v, and whether the server's cache supplied the
// answer. Unlike a batch, a query the server rejects (an unknown
// vertex) is a *Fail, sent in-band; other errors map as for BatchFunc.
type SingleFunc func(ctx context.Context, trace string, u, v uint32) (reachable, cached bool, err error)

// ServerConfig configures a mux Server. Batch and Single are required.
type ServerConfig struct {
	Batch  BatchFunc
	Single SingleFunc

	// Fingerprint is the snapshot fingerprint this server serves; a
	// client handshake naming a different one is refused with an
	// in-band 409. Empty disables the check (tests).
	Fingerprint string

	// MaxBatchPairs bounds one request frame; a larger one is answered
	// with an in-band 413. Defaults to DefaultMaxBatchPairs.
	MaxBatchPairs int

	// Window bounds in-flight requests per connection; a client that
	// pipelines past it is throttled by TCP backpressure, not errors.
	// Defaults to DefaultWindow.
	Window int

	// IdleTimeout closes connections with no traffic and nothing in
	// flight; clients redial transparently. 0 means
	// DefaultIdleTimeout; negative disables.
	IdleTimeout time.Duration

	// Logf, when set, receives connection-level events (handshake
	// refusals, protocol errors). Per-batch errors travel in-band.
	Logf func(format string, args ...any)
}

// Server accepts mux connections and answers their request frames,
// batches and single queries alike. Zero or one Serve loop per
// listener; Shutdown drains gracefully.
type Server struct {
	cfg      ServerConfig
	maxFrame int
	traffic  Counters

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*serverConn]struct{}
	draining bool
	connWG   sync.WaitGroup
	open     int
}

// NewServer validates cfg, applies defaults and returns a Server ready
// to Serve.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Batch == nil || cfg.Single == nil {
		panic("mux: ServerConfig.Batch and ServerConfig.Single are required")
	}
	if cfg.MaxBatchPairs <= 0 {
		cfg.MaxBatchPairs = DefaultMaxBatchPairs
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	return &Server{
		cfg:      cfg,
		maxFrame: wireproto.RequestSize(cfg.MaxBatchPairs),
		conns:    make(map[*serverConn]struct{}),
	}
}

// OpenConns returns the number of live connections (the
// reach_mux_conns gauge).
func (s *Server) OpenConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open
}

// Traffic exposes the server's transport counters for metrics.
func (s *Server) Traffic() *Counters { return &s.traffic }

// Serve accepts connections on ln until it is closed or Shutdown is
// called; it returns nil on graceful shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		sc := s.newConn(c)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		s.open++
		s.connWG.Add(1)
		s.mu.Unlock()
		go sc.run()
	}
}

// Shutdown drains gracefully: stop accepting, let every in-flight
// batch finish and flush, then close. Connections still open when ctx
// expires are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	kick := time.Unix(1, 0) // long past: unblocks readers immediately
	for _, sc := range conns {
		sc.drainkick.Store(true)
		sc.c.SetReadDeadline(kick)
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sc := range s.conns {
			sc.cancel()
			sc.c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// srvScratch is everything one in-flight request needs, pooled so the
// steady state allocates nothing: buf holds envelope+frame in both
// directions (a response frame never outgrows the request frame it
// reuses), pairs/out are the decoded batch, trace the raw trace bytes.
type srvScratch struct {
	stream   uint32
	oversize uint32 // byte length of a discarded over-limit frame, else 0
	n        int    // response bytes staged in buf
	buf      []byte
	pairs    [][2]uint32
	out      []bool
	trace    []byte
	traceStr string
}

var srvScratchPool = sync.Pool{New: func() any { return new(srvScratch) }}

// serverConn is one accepted connection: a reader goroutine frames
// requests into a bounded window, workers answer them, one writer
// coalesces responses back out.
type serverConn struct {
	srv    *Server
	c      net.Conn
	ctx    context.Context
	cancel context.CancelFunc

	work      chan *srvScratch
	writeq    chan *srvScratch
	window    chan struct{}
	inflight  atomic.Int64
	drainkick atomic.Bool
	caps      uint32
}

func (s *Server) newConn(c net.Conn) *serverConn {
	ctx, cancel := context.WithCancel(context.Background())
	w := s.cfg.Window
	return &serverConn{
		srv:    s,
		c:      c,
		ctx:    ctx,
		cancel: cancel,
		work:   make(chan *srvScratch, w),
		writeq: make(chan *srvScratch, w),
		window: make(chan struct{}, w),
	}
}

func (sc *serverConn) run() {
	defer func() {
		sc.cancel()
		sc.c.Close()
		sc.srv.removeConn(sc)
	}()
	if err := sc.handshake(); err != nil {
		sc.srv.logf("mux: handshake from %s: %v", sc.c.RemoteAddr(), err)
		return
	}
	var writerWG, workerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		sc.writer()
	}()
	workers := min(4, sc.srv.cfg.Window)
	for range workers {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for w := range sc.work {
				sc.handle(w)
				sc.writeq <- w
			}
		}()
	}
	err := sc.reader()
	// The reader is done, so no new work arrives: let in-flight
	// batches finish, flush their responses, then close. This IS the
	// graceful drain — the same sequence serves EOF, error and
	// shutdown exits.
	close(sc.work)
	workerWG.Wait()
	close(sc.writeq)
	writerWG.Wait()
	if err != nil {
		sc.srv.logf("mux: conn %s: %v", sc.c.RemoteAddr(), err)
	}
}

func (s *Server) removeConn(sc *serverConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.open--
	s.mu.Unlock()
	s.connWG.Done()
}

// handshake runs the one blocking exchange on a fresh connection:
// read the client's handshake frame, enforce the snapshot fingerprint
// (refusal is an in-band 409 error frame, so the client can tell
// identity mismatch from transport failure), and reply with this
// server's capabilities and fingerprint.
func (sc *serverConn) handshake() error {
	c := sc.c
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	defer c.SetDeadline(time.Time{})

	maxHS := wireproto.HandshakeSize(wireproto.MaxFingerprint)
	buf := make([]byte, wireproto.EnvelopeSize+maxHS)
	if _, err := io.ReadFull(c, buf[:wireproto.EnvelopeSize]); err != nil {
		return err
	}
	stream, flags, frameLen, err := wireproto.ParseEnvelope(buf[:wireproto.EnvelopeSize], maxHS)
	if err != nil {
		return err
	}
	if flags != 0 {
		return errProtocol
	}
	frame := buf[:frameLen]
	if _, err := io.ReadFull(c, frame); err != nil {
		return err
	}
	caps, fp, err := wireproto.DecodeHandshake(frame)
	if err != nil {
		return err
	}
	want := sc.srv.cfg.Fingerprint
	if want != "" && fp != "" && fp != want {
		// Refuse in-band on the client's handshake stream, then close.
		out := make([]byte, wireproto.EnvelopeSize+wireproto.ErrorSize(len("snapshot fingerprint mismatch")))
		n := wireproto.EncodeError(out[wireproto.EnvelopeSize:], 409, "snapshot fingerprint mismatch")
		wireproto.PutEnvelope(out, stream, 0, uint32(n))
		c.Write(out[:wireproto.EnvelopeSize+n])
		return ErrFingerprint
	}
	sc.caps = caps & wireproto.CapTrace
	out := make([]byte, wireproto.EnvelopeSize+wireproto.HandshakeSize(len(want)))
	n := wireproto.EncodeHandshake(out[wireproto.EnvelopeSize:], wireproto.CapTrace, want)
	wireproto.PutEnvelope(out, stream, 0, uint32(n))
	_, err = c.Write(out[:wireproto.EnvelopeSize+n])
	return err
}

// reader frames requests off the connection into the work queue. A nil
// return is a clean exit (EOF, idle close, drain); anything else is a
// protocol or transport error worth logging.
func (sc *serverConn) reader() error {
	var hdr [wireproto.EnvelopeSize + 4]byte
	idle := sc.srv.cfg.IdleTimeout
	for {
		if sc.drainkick.Load() {
			return nil
		}
		if idle > 0 {
			sc.c.SetReadDeadline(time.Now().Add(idle))
		}
		if sc.drainkick.Load() { // drain raced the deadline write above
			return nil
		}
		nr, err := io.ReadFull(sc.c, hdr[:wireproto.EnvelopeSize])
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() &&
				(sc.drainkick.Load() || (nr == 0 && sc.inflight.Load() == 0)) {
				return nil // drain kick, or idle with nothing in flight
			}
			return err
		}
		// Any length is taken here; the batch limit is applied below,
		// where an over-limit frame is answered rather than fatal.
		stream, flags, frameLen, err := wireproto.ParseEnvelope(hdr[:wireproto.EnvelopeSize], math.MaxInt)
		if err != nil {
			return err
		}
		traceLen := 0
		if flags&wireproto.EnvFlagTrace != 0 {
			if _, err := io.ReadFull(sc.c, hdr[wireproto.EnvelopeSize:]); err != nil {
				return err
			}
			if traceLen, err = wireproto.ParseTraceLen(hdr[wireproto.EnvelopeSize:]); err != nil {
				return err
			}
		}
		w := srvScratchPool.Get().(*srvScratch)
		w.stream = stream
		w.traceStr = ""
		if traceLen > 0 {
			if cap(w.trace) < traceLen {
				w.trace = make([]byte, traceLen)
			}
			if _, err := io.ReadFull(sc.c, w.trace[:traceLen]); err != nil {
				srvScratchPool.Put(w)
				return err
			}
			w.traceStr = string(w.trace[:traceLen])
		}
		// A frame over the batch limit is read through io.Discard's small
		// pooled buffer, never one sized from the peer's claim, and gets
		// an in-band 413 on its own stream: one oversized batch costs its
		// sender an error, not the connection.
		w.oversize = 0
		if int64(frameLen) > int64(sc.srv.maxFrame) {
			w.oversize = frameLen
			if _, err := io.CopyN(io.Discard, sc.c, int64(frameLen)); err != nil {
				srvScratchPool.Put(w)
				return err
			}
		} else {
			if cap(w.buf) < wireproto.EnvelopeSize+int(frameLen) {
				w.buf = make([]byte, wireproto.EnvelopeSize+int(frameLen))
			}
			w.buf = w.buf[:wireproto.EnvelopeSize+int(frameLen)]
			if _, err := io.ReadFull(sc.c, w.buf[wireproto.EnvelopeSize:]); err != nil {
				srvScratchPool.Put(w)
				return err
			}
		}
		sc.srv.traffic.FramesRx.Add(1)
		sc.srv.traffic.BytesRx.Add(int64(wireproto.EnvelopeSize + traceLen + int(frameLen)))
		// The window bounds in-flight requests: when it is full the
		// reader stops here and TCP backpressure throttles the peer.
		select {
		case sc.window <- struct{}{}:
		case <-sc.ctx.Done():
			srvScratchPool.Put(w)
			return ErrClosed
		}
		sc.inflight.Add(1)
		sc.work <- w
	}
}

// handle answers one request frame, a batch or a single query, in
// place: the response (or error frame) is staged back into w.buf behind
// a fresh envelope.
func (sc *serverConn) handle(w *srvScratch) {
	if w.oversize > 0 {
		sc.fail(w, 413, "batch frame of "+strconv.FormatUint(uint64(w.oversize), 10)+
			" bytes exceeds the limit of "+strconv.Itoa(sc.srv.cfg.MaxBatchPairs)+" pairs")
		return
	}
	frame := w.buf[wireproto.EnvelopeSize:]
	n, err := wireproto.RequestCount(frame)
	if err != nil {
		sc.fail(w, 400, "malformed batch frame")
		return
	}
	if cap(w.pairs) < n {
		w.pairs = make([][2]uint32, n)
	}
	w.pairs = w.pairs[:n]
	if cap(w.out) < n {
		w.out = make([]bool, n)
	}
	w.out = w.out[:n]
	wireproto.DecodeRequest(frame, w.pairs)
	single, cached := wireproto.IsSingle(frame), false
	if single {
		w.out[0], cached, err = sc.srv.cfg.Single(sc.ctx, w.traceStr, w.pairs[0][0], w.pairs[0][1])
	} else {
		err = sc.srv.cfg.Batch(sc.ctx, w.traceStr, w.pairs, w.out)
	}
	if err != nil {
		var f *Fail
		switch {
		case errors.As(err, &f):
			sc.fail(w, f.Status, f.Msg)
		case sc.ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			sc.fail(w, 503, "batch timed out or server draining")
		default:
			sc.fail(w, 500, err.Error())
		}
		return
	}
	var m int
	if single {
		m = wireproto.EncodeSingleResponse(frame, w.out[0], cached)
	} else {
		m = wireproto.EncodeResponse(frame, w.out)
	}
	wireproto.PutEnvelope(w.buf, w.stream, 0, uint32(m))
	w.n = wireproto.EnvelopeSize + m
}

// fail stages an in-band error frame as the stream's response.
func (sc *serverConn) fail(w *srvScratch, status int, msg string) {
	need := wireproto.EnvelopeSize + wireproto.ErrorSize(len(msg))
	if cap(w.buf) < need {
		buf := make([]byte, need)
		w.buf = buf
	}
	w.buf = w.buf[:need]
	n := wireproto.EncodeError(w.buf[wireproto.EnvelopeSize:], status, msg)
	wireproto.PutEnvelope(w.buf, w.stream, 0, uint32(n))
	w.n = wireproto.EnvelopeSize + n
}

// writer is the only goroutine touching the connection's write side:
// it streams staged responses out through one buffered writer,
// flushing when the queue runs dry — batched syscalls under pipelined
// load, prompt delivery when idle.
func (sc *serverConn) writer() {
	bw := bufio.NewWriterSize(sc.c, 32<<10)
	broken := false
	for w := range sc.writeq {
		if !broken {
			if _, err := bw.Write(w.buf[:w.n]); err != nil {
				broken = true
				sc.cancel()
				sc.c.Close()
			}
		}
		sc.srv.traffic.FramesTx.Add(1)
		sc.srv.traffic.BytesTx.Add(int64(w.n))
		sc.inflight.Add(-1)
		<-sc.window
		srvScratchPool.Put(w)
		if !broken && len(sc.writeq) == 0 {
			if err := bw.Flush(); err != nil {
				broken = true
				sc.cancel()
				sc.c.Close()
			}
		}
	}
	if !broken {
		bw.Flush()
	}
}
