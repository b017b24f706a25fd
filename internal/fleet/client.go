package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mux"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wireproto"
)

// wireCounters tallies batch traffic by encoding from the sender's
// perspective: tx is request-body bytes sent to replicas, rx is
// response-body bytes read back. The router shares one instance across
// its replica clients and exposes it as reach_wire_frames_total /
// reach_wire_bytes_total.
type wireCounters struct {
	framesJSON   atomic.Int64
	framesBinary atomic.Int64
	txJSON       atomic.Int64
	rxJSON       atomic.Int64
	txBinary     atomic.Int64
	rxBinary     atomic.Int64
}

// Client speaks the reachd v1 wire protocol to one replica. It reuses
// the server package's exported wire types, so the router can never
// drift from what the replicas actually serve.
type Client struct {
	base string
	hc   *http.Client

	// muxPool, when set, is the persistent stream-transport connection
	// pool to this replica (internal/mux): Batch tries it before HTTP and
	// falls back per batch when no connection is available. The router
	// installs it via UseMux from the replica's healthz "mux"
	// advertisement and tears it down when the advertisement disappears.
	muxPool atomic.Pointer[mux.Pool]

	// counters receives this client's batch traffic accounting; NewClient
	// allocates a private set, the router repoints it at a shared one.
	// muxCounters is the stream-transport equivalent (set before UseMux;
	// nil gives each pool a private set).
	counters    *wireCounters
	muxCounters *mux.Counters
}

// NewClient returns a client for the replica at base (e.g.
// "http://10.0.0.3:8080"). timeout bounds each request end-to-end; zero
// means no timeout. Batches go as wireproto frames over HTTP until
// UseMux installs a stream-transport pool.
func NewClient(base string, timeout time.Duration) *Client {
	return &Client{base: base, hc: &http.Client{Timeout: timeout}, counters: &wireCounters{}}
}

// UseMux points Batch at the replica's stream-transport listener:
// subsequent batches go over persistent mux connections (dialed lazily,
// fingerprint-checked in the handshake) with per-batch HTTP fallback.
// An empty addr tears the pool down — the replica stopped advertising
// the capability. Idempotent per (addr, fingerprint), so the router can
// call it on every probe; a changed address or fingerprint replaces the
// pool (closing the old one) so stale connections can't outlive what
// healthz now claims.
func (c *Client) UseMux(addr, fingerprint string) {
	old := c.muxPool.Load()
	if addr == "" {
		if old != nil && c.muxPool.CompareAndSwap(old, nil) {
			old.Close()
		}
		return
	}
	if old != nil && old.Addr() == addr && old.Fingerprint() == fingerprint {
		return
	}
	p := mux.NewPool(addr, mux.DefaultConnsPerReplica, mux.ClientConfig{
		Fingerprint: fingerprint,
		Counters:    c.muxCounters,
	})
	if c.muxPool.CompareAndSwap(old, p) {
		if old != nil {
			old.Close()
		}
	} else {
		p.Close() // lost a race with a concurrent UseMux; keep the winner
	}
}

// MuxActive reports whether Batch currently tries the stream transport
// first — the per-replica "transport" truth /v1/stats exposes.
func (c *Client) MuxActive() bool { return c.muxPool.Load() != nil }

// MuxOpenConns reports the pool's currently open connections (0 with no
// pool), feeding the router's reach_mux_conns gauge.
func (c *Client) MuxOpenConns() int {
	if p := c.muxPool.Load(); p != nil {
		return p.OpenConns()
	}
	return 0
}

// Base returns the replica's base URL.
func (c *Client) Base() string { return c.base }

// StatusError is a non-2xx reply from a replica. The router decides per
// status what to do: 429 and 5xx are retryable on another replica, other
// 4xx are the caller's fault and pass through unchanged.
type StatusError struct {
	Status int
	Body   string // replica's ErrorResponse body, best-effort decoded
	// RetryAfter is the parsed Retry-After header in seconds (0 when
	// absent); only meaningful on 429.
	RetryAfter int
}

func (e *StatusError) Error() string {
	if e.Body != "" {
		return fmt.Sprintf("replica answered HTTP %d: %s", e.Status, e.Body)
	}
	return fmt.Sprintf("replica answered HTTP %d", e.Status)
}

// Retryable reports whether another replica might answer where this one
// refused: overload (429) and server-side errors (5xx) are worth a
// failover, caller errors (other 4xx) are not.
func (e *StatusError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// do issues the request and decodes a 2xx JSON body into out. Non-2xx
// replies become *StatusError; transport failures are returned as-is so
// the router can treat them as replica death. A trace ID carried by the
// request's context propagates to the replica as X-Reach-Trace, so one
// ID follows a query through router and replica logs.
func (c *Client) do(req *http.Request, out any) error {
	return c.doCount(req, out, nil)
}

// doCount is do with optional response-byte accounting: when rx is
// non-nil it receives the body bytes read (decode and drain both count),
// feeding the reach_wire_bytes_total{direction="rx"} series.
func (c *Client) doCount(req *http.Request, out any, rx *atomic.Int64) error {
	if id := obs.TraceFrom(req.Context()); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	body := &countingReader{r: resp.Body}
	defer func() {
		io.Copy(io.Discard, body) // drain so keep-alive can reuse the conn
		resp.Body.Close()
		if rx != nil {
			rx.Add(body.n)
		}
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Status: resp.StatusCode}
		var eresp server.ErrorResponse
		if raw, err := io.ReadAll(io.LimitReader(body, 4096)); err == nil {
			if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
				se.Body = eresp.Error
			} else {
				se.Body = string(bytes.TrimSpace(raw))
			}
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			se.RetryAfter = ra
		}
		return se
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(body).Decode(out)
}

// countingReader tallies bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// Healthz probes the replica's liveness and serving identity.
func (c *Client) Healthz(ctx context.Context) (server.HealthzResponse, error) {
	var hz server.HealthzResponse
	err := c.get(ctx, "/v1/healthz", &hz)
	return hz, err
}

// Stats fetches the replica's full /v1/stats counters.
func (c *Client) Stats(ctx context.Context) (server.Stats, error) {
	var st server.Stats
	err := c.get(ctx, "/v1/stats", &st)
	return st, err
}

// Reachable asks the replica one query.
func (c *Client) Reachable(ctx context.Context, u, v uint64) (server.ReachableResponse, error) {
	var rr server.ReachableResponse
	err := c.get(ctx, fmt.Sprintf("/v1/reachable?u=%d&v=%d", u, v), &rr)
	return rr, err
}

// Batch sends pairs to the replica's /v1/batch and returns the in-order
// results. A reply whose result count does not match the pair count is a
// protocol violation and is reported as an error rather than silently
// misaligned.
//
// The encoding follows from the batch alone: pairs go as one wireproto
// frame, or as JSON when any ID exceeds the frame format's uint32 range
// (the JSON path carries u64 IDs). Every replica is built from this
// repository, so it parses both; one that refuses a frame answers an
// error status, which surfaces as *StatusError like any other replica
// verdict.
//
// With a mux pool installed (see UseMux), the frame goes over a
// persistent stream-transport connection instead of an HTTP request;
// when no connection is available (dial failure, backoff window, a
// connection that just died) the batch falls back to HTTP — the
// fallback is per batch, so the transport self-heals without the router
// noticing.
func (c *Client) Batch(ctx context.Context, pairs [][2]uint64) ([]bool, error) {
	sc := clientScratchPool.Get().(*clientScratch)
	defer clientScratchPool.Put(sc)
	n := len(pairs)
	if cap(sc.pairs) < n {
		sc.pairs = make([][2]uint32, n)
	}
	p32 := sc.pairs[:n]
	for i, p := range pairs {
		if p[0] > math.MaxUint32 || p[1] > math.MaxUint32 {
			return c.batchJSON(ctx, pairs)
		}
		p32[i] = [2]uint32{uint32(p[0]), uint32(p[1])}
	}
	if p := c.muxPool.Load(); p != nil {
		results, ok, err := c.batchMux(ctx, p, p32)
		if ok || err != nil {
			return results, err
		}
		// Fell through: no usable connection — try HTTP.
	}
	return c.batchBinary(ctx, sc, p32)
}

// batchMux sends pairs over the stream transport. ok=false with a nil
// error means "try HTTP instead, this batch": the pool has no usable
// connection right now (it redials in the background), or the
// connection died mid-flight (a transport error, not a replica verdict).
// Replica verdicts — error frames — surface as *StatusError exactly like
// HTTP statuses, so the router's retry/failover policy is
// transport-blind.
func (c *Client) batchMux(ctx context.Context, p *mux.Pool, pairs [][2]uint32) (results []bool, ok bool, err error) {
	cn, err := p.Get(ctx)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, false, ctxErr
		}
		return nil, false, nil // no connection: backoff window or dial failure
	}
	out := make([]bool, len(pairs))
	if err := cn.Batch(ctx, pairs, out, obs.TraceFrom(ctx)); err != nil {
		var f *mux.Fail
		if errors.As(err, &f) {
			// The replica answered and refused — same verdict it would
			// have given over HTTP, so same error shape.
			return nil, false, &StatusError{Status: f.Status, Body: f.Msg}
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, false, ctxErr
		}
		// Transport failure: the connection is dead (the pool replaces it
		// on a later Get). The replica may be fine — let HTTP decide.
		return nil, false, nil
	}
	return out, true, nil
}

// resolveMuxAddr turns a replica's advertised mux address into a
// dialable one. Replicas advertise whatever their listener bound; a
// wildcard host (":9090", "0.0.0.0:9090", "[::]:9090") names every
// interface and none, so the router substitutes the host it already
// reaches the replica's HTTP API on. Returns "" for an unparseable
// advertisement — the router then just stays on HTTP.
func resolveMuxAddr(base, adv string) string {
	host, port, err := net.SplitHostPort(adv)
	if err != nil || port == "" {
		return ""
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		u, err := url.Parse(base)
		if err != nil || u.Hostname() == "" {
			return ""
		}
		host = u.Hostname()
	}
	return net.JoinHostPort(host, port)
}

func (c *Client) batchJSON(ctx context.Context, pairs [][2]uint64) ([]bool, error) {
	body, err := json.Marshal(server.BatchRequest{Pairs: pairs})
	if err != nil {
		return nil, err
	}
	c.counters.framesJSON.Add(1)
	c.counters.txJSON.Add(int64(len(body)))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var br server.BatchResponse
	if err := c.doCount(req, &br, &c.counters.rxJSON); err != nil {
		return nil, err
	}
	if len(br.Results) != len(pairs) {
		return nil, fmt.Errorf("replica answered %d results for %d pairs", len(br.Results), len(pairs))
	}
	return br.Results, nil
}

// clientScratch is one binary batch's worth of reusable buffers: the
// request frame (reused to read the smaller response frame back) and the
// narrowed pairs.
type clientScratch struct {
	frame []byte
	pairs [][2]uint32
}

var clientScratchPool = sync.Pool{New: func() any { return new(clientScratch) }}

// batchBinary sends pairs as one wireproto request frame over HTTP,
// encoding into sc's frame buffer.
func (c *Client) batchBinary(ctx context.Context, sc *clientScratch, pairs [][2]uint32) ([]bool, error) {
	n := len(pairs)
	size := wireproto.RequestSize(n)
	if cap(sc.frame) < size {
		sc.frame = make([]byte, size)
	}
	frame := sc.frame[:size]
	wireproto.EncodeRequest(frame, pairs)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wireproto.ContentType)
	if id := obs.TraceFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	c.counters.framesBinary.Add(1)
	c.counters.txBinary.Add(int64(size))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Status: resp.StatusCode}
		if raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			c.counters.rxBinary.Add(int64(len(raw)))
			if _, msg, derr := wireproto.DecodeError(raw); derr == nil {
				se.Body = msg
			} else {
				// Not an error frame — a proxy or mux answered. Keep the
				// same best-effort body decoding the JSON path uses.
				var eresp server.ErrorResponse
				if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
					se.Body = eresp.Error
				} else {
					se.Body = string(bytes.TrimSpace(raw))
				}
			}
		}
		if ra, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && ra > 0 {
			se.RetryAfter = ra
		}
		return nil, se
	}

	// Success: the response frame is exactly ResponseSize(n) bytes and
	// fits in the request's buffer (results are bit-packed).
	rsize := wireproto.ResponseSize(n)
	rframe := sc.frame[:rsize]
	if _, err := io.ReadFull(resp.Body, rframe); err != nil {
		return nil, fmt.Errorf("reading response frame: %w", err)
	}
	var trailer [1]byte
	if extra, _ := resp.Body.Read(trailer[:]); extra != 0 {
		return nil, fmt.Errorf("replica sent trailing bytes after response frame")
	}
	c.counters.rxBinary.Add(int64(rsize))
	m, err := wireproto.ResponseCount(rframe)
	if err != nil {
		return nil, fmt.Errorf("bad response frame: %w", err)
	}
	if m != n {
		return nil, fmt.Errorf("replica answered %d results for %d pairs", m, n)
	}
	results := make([]bool, n)
	if err := wireproto.DecodeResponse(rframe, results); err != nil {
		return nil, fmt.Errorf("bad response frame: %w", err)
	}
	return results, nil
}

// CloseIdleConnections releases the client's pooled keep-alive
// connections — HTTP keep-alives and the mux pool both.
func (c *Client) CloseIdleConnections() {
	c.hc.CloseIdleConnections()
	if old := c.muxPool.Load(); old != nil && c.muxPool.CompareAndSwap(old, nil) {
		old.Close()
	}
}
