// Package mux is the router↔replica query transport: wireproto frames
// prefixed with a small stream envelope travel over a few long-lived
// raw-TCP connections per replica, so the fleet router pipelines many
// in-flight requests without paying HTTP/1.1 header parsing or
// per-request connection bookkeeping on every call. It is the only
// interior path for batches and single queries whose vertex IDs fit
// u32: a batch is one request frame (Conn.Batch), a single query a
// one-pair frame flagged single (Conn.Single), whose response carries
// the cache flag and whose unknown vertex is an in-band 400. HTTP is
// left to wider IDs and to direct clients.
//
// The first frame in each direction is a handshake carrying a
// capability mask and the snapshot fingerprint, so the enrollment-grade
// identity check the router performs over HTTP survives raw-TCP
// reconnects: a replica restarted onto a different snapshot refuses the
// connection with an in-band 409 error frame. The router enrolls a
// replica only after such a handshake succeeds.
//
// Per-request refusals (a malformed or over-limit frame, a full
// admission gate, an expired deadline, a single query's unknown vertex)
// travel in-band as error frames on the request's own stream and leave
// the connection serving. A connection that dies is a transport error:
// the fleet client retries the request once on another connection, and
// then the router fails over to another replica — never a wrong answer.
// Steady-state send and receive allocate nothing on either side
// (AllocsPerRun-pinned).
package mux

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wireproto"
)

// Defaults. Window bounds in-flight requests per connection (the
// dispatch tables are sized by it); ConnsPerReplica is how many
// connections a client pool keeps toward one replica.
const (
	DefaultWindow          = 32
	DefaultConnsPerReplica = 2
	DefaultIdleTimeout     = 2 * time.Minute
	DefaultMaxBatchPairs   = 1 << 20

	// handshakeTimeout bounds the one blocking exchange a connection
	// performs; everything after it is pipelined.
	handshakeTimeout = 5 * time.Second
)

// Client/server errors.
var (
	// ErrClosed: the connection or pool has been closed (or died).
	ErrClosed = errors.New("mux: connection closed")
	// ErrFingerprint: the peer serves a different snapshot than this
	// side expects — the raw-TCP analogue of refusing enrollment.
	ErrFingerprint = errors.New("mux: snapshot fingerprint mismatch")
	// errProtocol: the peer violated the stream framing rules; the
	// connection is unusable and is torn down.
	errProtocol = errors.New("mux: stream protocol violation")
)

// Fail is an in-band error frame surfaced as a Go error: the
// HTTP-shaped status and message a replica sent instead of a response
// frame. The fleet client maps it to the same handling as an HTTP error
// status (429 fails over, 5xx retries elsewhere, other 4xx pass
// through).
type Fail struct {
	Status int
	Msg    string
}

func (f *Fail) Error() string {
	return fmt.Sprintf("mux: upstream status %d: %s", f.Status, f.Msg)
}

// Counters aggregates transport traffic across connections sharing
// them (a server, or every pool one fleet client owns). Updated with
// relaxed atomics on the hot path, read by metrics exposition.
type Counters struct {
	FramesTx atomic.Int64
	FramesRx atomic.Int64
	BytesTx  atomic.Int64
	BytesRx  atomic.Int64
}

// maxResponse is the largest frame a client accepts on a stream that
// carries a request of n pairs: the response to that request, or the
// largest error frame a server may send instead.
func maxResponse(n int) int {
	return max(wireproto.ResponseSize(n), wireproto.ErrorSize(wireproto.MaxErrorMsg))
}
