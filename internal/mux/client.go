package mux

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wireproto"
)

// ClientConfig configures dialed connections (and the Pool that owns
// them).
type ClientConfig struct {
	// Fingerprint is the snapshot fingerprint this client expects the
	// replica to serve, learned at HTTP enrollment. Empty skips the
	// check.
	Fingerprint string

	// Window is the number of concurrent streams per connection.
	// Defaults to DefaultWindow.
	Window int

	// MaxBatchPairs bounds batches this client sends (and therefore
	// the responses it accepts). Defaults to DefaultMaxBatchPairs.
	MaxBatchPairs int

	// Counters receives traffic counts; nil uses a private set.
	Counters *Counters

	// DialTimeout bounds the TCP dial (the handshake has its own
	// timeout on top). Defaults to handshakeTimeout.
	DialTimeout time.Duration
}

func (cfg *ClientConfig) defaults() {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBatchPairs <= 0 {
		cfg.MaxBatchPairs = DefaultMaxBatchPairs
	}
	if cfg.Counters == nil {
		cfg.Counters = &Counters{}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = handshakeTimeout
	}
}

// slot is one stream's state. The stream ID is the slot index, so
// dispatching a response is an array index — no map, no allocation.
// state moves free → waiting → (done | abandoned): abandoned marks a
// slot whose Batch caller gave up (ctx cancelled) while the response
// was still in flight; the reader reclaims it when the response (for
// the abandoned request) finally lands, so a late frame can never be
// mistaken for the answer to a newer batch.
type slot struct {
	state atomic.Int32
	done  chan struct{} // cap 1, signaled by the reader exactly once per waiting round
	err   error         // valid after done; nil = resp holds a frame
	req   []byte
	resp  []byte
	respN int
}

const (
	slotFree int32 = iota
	slotWaiting
	slotDone
	slotAbandoned
)

// Conn is one multiplexed client connection. Batch and Single are safe
// for concurrent use; up to Window requests are in flight at once and
// excess callers queue on the free-slot channel.
type Conn struct {
	c        net.Conn
	caps     uint32 // negotiated: ours AND the server's
	serverFP string
	window   int
	maxFrame int
	counters *Counters

	wmu   sync.Mutex // serializes writes; each request is one contiguous Write
	slots []slot
	free  chan uint32

	dead       atomic.Bool
	failMu     sync.Mutex
	failed     bool
	firstErr   error
	readerDone chan struct{}
}

// Dial connects, handshakes (sending cfg.Fingerprint as the expected
// snapshot identity) and starts the reader. A server refusing the
// fingerprint yields an error wrapping ErrFingerprint.
func Dial(ctx context.Context, addr string, cfg ClientConfig) (*Conn, error) {
	cfg.defaults()
	d := net.Dialer{Timeout: cfg.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	hs := make([]byte, wireproto.EnvelopeSize+wireproto.HandshakeSize(len(cfg.Fingerprint)))
	n := wireproto.EncodeHandshake(hs[wireproto.EnvelopeSize:], wireproto.CapTrace, cfg.Fingerprint)
	wireproto.PutEnvelope(hs, 0, 0, uint32(n))
	if _, err := nc.Write(hs[:wireproto.EnvelopeSize+n]); err != nil {
		nc.Close()
		return nil, err
	}
	maxReply := maxEnvelopedResponse(cfg.MaxBatchPairs)
	var hdr [wireproto.EnvelopeSize]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		nc.Close()
		return nil, err
	}
	_, flags, frameLen, err := wireproto.ParseEnvelope(hdr[:], maxReply)
	if err != nil || flags != 0 {
		nc.Close()
		if err == nil {
			err = errProtocol
		}
		return nil, err
	}
	frame := make([]byte, frameLen)
	if _, err := io.ReadFull(nc, frame); err != nil {
		nc.Close()
		return nil, err
	}
	if wireproto.IsError(frame) {
		status, msg, derr := wireproto.DecodeError(frame)
		nc.Close()
		if derr != nil {
			return nil, derr
		}
		if status == 409 {
			return nil, fmt.Errorf("%w: %s", ErrFingerprint, msg)
		}
		return nil, &Fail{Status: status, Msg: msg}
	}
	caps, serverFP, err := wireproto.DecodeHandshake(frame)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if cfg.Fingerprint != "" && serverFP != "" && serverFP != cfg.Fingerprint {
		nc.Close()
		return nil, fmt.Errorf("%w: replica serves %s", ErrFingerprint, serverFP)
	}
	nc.SetDeadline(time.Time{})

	cn := &Conn{
		c:          nc,
		caps:       caps & wireproto.CapTrace,
		serverFP:   serverFP,
		window:     cfg.Window,
		maxFrame:   maxReply,
		counters:   cfg.Counters,
		slots:      make([]slot, cfg.Window),
		free:       make(chan uint32, cfg.Window),
		readerDone: make(chan struct{}),
	}
	for i := range cn.slots {
		cn.slots[i].done = make(chan struct{}, 1)
		cn.free <- uint32(i)
	}
	go cn.reader()
	return cn, nil
}

// Dead reports whether the connection has failed; a dead Conn fails
// every Batch immediately and the pool redials past it.
func (cn *Conn) Dead() bool { return cn.dead.Load() }

// ServerFingerprint returns the fingerprint the server reported in its
// handshake.
func (cn *Conn) ServerFingerprint() string { return cn.serverFP }

// Close tears the connection down; in-flight batches fail with
// ErrClosed.
func (cn *Conn) Close() error {
	cn.fail(ErrClosed)
	<-cn.readerDone
	return nil
}

// fail marks the connection dead exactly once, recording the first
// error and closing the socket (which unblocks the reader).
func (cn *Conn) fail(err error) {
	cn.failMu.Lock()
	if !cn.failed {
		cn.failed = true
		cn.firstErr = err
		cn.dead.Store(true)
		cn.c.Close()
	}
	cn.failMu.Unlock()
}

func (cn *Conn) failErr() error {
	cn.failMu.Lock()
	defer cn.failMu.Unlock()
	if cn.firstErr == nil {
		return ErrClosed
	}
	return cn.firstErr
}

// Batch sends pairs and fills out with the replica's answers;
// len(out) must equal len(pairs). trace rides along when nonempty and
// the connection negotiated CapTrace. The steady state allocates
// nothing: the request is encoded into the slot's reusable buffer, the
// response decoded straight into out.
func (cn *Conn) Batch(ctx context.Context, pairs [][2]uint32, out []bool, trace string) error {
	if len(out) != len(pairs) {
		return wireproto.ErrBuffer
	}
	_, err := cn.roundTrip(ctx, pairs, out, false, trace)
	return err
}

// Single sends one query as a single frame and returns the replica's
// answer and whether its cache supplied it. Unlike a one-pair batch, a
// query the replica rejects (an unknown vertex) comes back as *Fail
// with status 400. It allocates nothing in the steady state, like
// Batch.
func (cn *Conn) Single(ctx context.Context, u, v uint32, trace string) (reachable, cached bool, err error) {
	pair := [1][2]uint32{{u, v}}
	var out [1]bool
	cached, err = cn.roundTrip(ctx, pair[:], out[:], true, trace)
	return out[0], cached, err
}

// roundTrip sends pairs as one request frame, a single query when
// single is set, on a free stream and decodes the answer into out,
// reporting a single query's cached flag.
func (cn *Conn) roundTrip(ctx context.Context, pairs [][2]uint32, out []bool, single bool, trace string) (cached bool, err error) {
	if cn.dead.Load() {
		return false, cn.failErr()
	}
	var id uint32
	select {
	case id = <-cn.free:
	case <-ctx.Done():
		return false, ctx.Err()
	case <-cn.readerDone:
		return false, cn.failErr()
	}
	sl := &cn.slots[id]

	useTrace := trace != "" && cn.caps&wireproto.CapTrace != 0 && len(trace) <= wireproto.MaxTraceBytes
	pre := wireproto.EnvelopeSize
	if useTrace {
		pre += wireproto.TraceSize(len(trace))
	}
	size := pre + wireproto.RequestSize(len(pairs))
	if cap(sl.req) < size {
		sl.req = make([]byte, size)
	}
	sl.req = sl.req[:size]
	buildRequest(sl.req, id, pairs, single, trace, useTrace)

	sl.state.Store(slotWaiting)
	if cn.dead.Load() {
		// The reader may have exited before it could see this slot;
		// reclaim it ourselves unless failAll got there first.
		if sl.state.CompareAndSwap(slotWaiting, slotFree) {
			return false, cn.failErr()
		}
	} else {
		cn.wmu.Lock()
		_, werr := cn.c.Write(sl.req)
		cn.wmu.Unlock()
		if werr != nil {
			cn.fail(werr)
			// The slot is waiting; the reader's failAll signals it.
		} else {
			cn.counters.FramesTx.Add(1)
			cn.counters.BytesTx.Add(int64(size))
		}
	}

	select {
	case <-sl.done:
	case <-ctx.Done():
		if sl.state.CompareAndSwap(slotWaiting, slotAbandoned) {
			return false, ctx.Err() // the reader reclaims the slot when the late response lands
		}
		<-sl.done // lost the race: a signal is already in flight
		cn.release(id, sl)
		return false, ctx.Err()
	}
	if sl.err != nil {
		err := sl.err
		cn.release(id, sl)
		return false, err
	}
	resp := sl.resp[:sl.respN]
	if wireproto.IsError(resp) {
		status, msg, derr := wireproto.DecodeError(resp)
		cn.release(id, sl)
		if derr != nil {
			cn.fail(derr)
			return false, derr
		}
		return false, &Fail{Status: status, Msg: msg}
	}
	m, err := wireproto.ResponseCount(resp)
	if err == nil && m != len(pairs) {
		err = errProtocol
	}
	if err != nil {
		cn.release(id, sl)
		cn.fail(err)
		return false, err
	}
	wireproto.DecodeResponse(resp, out)
	cached = single && wireproto.IsCached(resp)
	cn.release(id, sl)
	return cached, nil
}

// buildRequest stages one request into buf: envelope, optional trace
// field, frame (a single-query frame when single is set). buf is
// pre-sized by the caller.
//
//reach:hotpath
func buildRequest(buf []byte, stream uint32, pairs [][2]uint32, single bool, trace string, useTrace bool) {
	off := wireproto.EnvelopeSize
	var flags uint32
	if useTrace {
		flags = wireproto.EnvFlagTrace
		off += wireproto.PutTrace(buf[wireproto.EnvelopeSize:], trace)
	}
	var n int
	if single {
		n = wireproto.EncodeSingle(buf[off:], pairs[0][0], pairs[0][1])
	} else {
		n = wireproto.EncodeRequest(buf[off:], pairs)
	}
	wireproto.PutEnvelope(buf, stream, flags, uint32(n))
}

// release returns a slot to the free list.
func (cn *Conn) release(id uint32, sl *slot) {
	sl.state.Store(slotFree)
	cn.free <- id
}

// reader dispatches response frames to their slots by stream ID until
// the connection dies, then fails every waiting slot.
func (cn *Conn) reader() {
	var err error
	var hdr [wireproto.EnvelopeSize]byte
	for {
		if _, e := io.ReadFull(cn.c, hdr[:]); e != nil {
			err = e
			break
		}
		stream, flags, frameLen, e := wireproto.ParseEnvelope(hdr[:], cn.maxFrame)
		if e != nil {
			err = e
			break
		}
		if flags != 0 || int(stream) >= len(cn.slots) {
			err = errProtocol
			break
		}
		sl := &cn.slots[stream]
		if cap(sl.resp) < int(frameLen) {
			sl.resp = make([]byte, frameLen)
		}
		sl.resp = sl.resp[:frameLen]
		if _, e := io.ReadFull(cn.c, sl.resp); e != nil {
			err = e
			break
		}
		cn.counters.FramesRx.Add(1)
		cn.counters.BytesRx.Add(int64(wireproto.EnvelopeSize + int(frameLen)))
		sl.respN = int(frameLen)
		if sl.state.CompareAndSwap(slotWaiting, slotDone) {
			sl.err = nil
			sl.done <- struct{}{}
		} else if sl.state.CompareAndSwap(slotAbandoned, slotFree) {
			cn.free <- stream // late response for an abandoned batch: slot is safe to reuse now
		} else {
			err = errProtocol // response for a stream nobody is waiting on
			break
		}
	}
	cn.fail(err)
	ferr := cn.failErr()
	for i := range cn.slots {
		sl := &cn.slots[i]
		if sl.state.CompareAndSwap(slotWaiting, slotDone) {
			sl.err = ferr
			sl.done <- struct{}{}
		}
	}
	close(cn.readerDone)
}
