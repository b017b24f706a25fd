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
)

// wireCounters tallies the JSON sub-batches sent to replicas, the ones
// holding a vertex ID wider than u32 (every other sub-batch is a frame,
// counted in reach_mux_*): tx is request-body bytes sent, rx is
// response-body bytes read. The router shares one instance across its
// replica clients and exposes it as reach_wire_frames_total /
// reach_wire_bytes_total.
type wireCounters struct {
	framesJSON atomic.Int64
	txJSON     atomic.Int64
	rxJSON     atomic.Int64
}

// Client speaks the reachd v1 protocol to one replica: wireproto frames
// over the replica's stream transport (internal/mux) for every batch and
// single query whose IDs fit u32, and HTTP for health, stats and the
// queries holding an ID wider than u32 (JSON POST /v1/batch, GET
// /v1/reachable). It reuses the server package's exported wire types,
// so the router can never drift from what the replicas actually serve.
type Client struct {
	base string
	hc   *http.Client

	// muxPool is the persistent stream-transport connection pool to
	// this replica, installed by UseMux from the replica's healthz "mux"
	// advertisement.
	muxPool atomic.Pointer[mux.Pool]

	// counters receives this client's JSON batch accounting; NewClient
	// allocates a private set, the router repoints it at a shared one.
	// muxCounters is the stream-transport equivalent (set before UseMux;
	// nil gives each pool a private set).
	counters    *wireCounters
	muxCounters *mux.Counters
}

// NewClient returns a client for the replica at base (e.g.
// "http://10.0.0.3:8080"). timeout bounds each HTTP request end-to-end;
// zero means no timeout. Queries whose IDs fit u32 need UseMux first.
func NewClient(base string, timeout time.Duration) *Client {
	return &Client{base: base, hc: &http.Client{Timeout: timeout}, counters: &wireCounters{}}
}

// errNoMux: the replica advertises no stream-transport listener (or
// UseMux was never called), so its u32 queries have nowhere to go.
var errNoMux = errors.New("replica advertises no mux listener")

// UseMux points Batch and Reachable at the replica's stream-transport
// listener at addr and makes sure the pool holds a live connection,
// dialing one only when none is live: a handshake that checks the
// snapshot fingerprint.
// The router calls it on every probe and enrolls the replica only when
// it returns nil. A changed address or fingerprint replaces the pool
// (closing the old one), so stale connections cannot outlive what
// healthz now claims; an empty addr tears the pool down and returns
// errNoMux. Calls must not overlap, as a router's probes of one replica
// never do.
func (c *Client) UseMux(ctx context.Context, addr, fingerprint string) error {
	if addr == "" {
		if old := c.muxPool.Swap(nil); old != nil {
			old.Close()
		}
		return errNoMux
	}
	p := c.muxPool.Load()
	if p == nil || p.Addr() != addr || p.Fingerprint() != fingerprint {
		p = mux.NewPool(addr, mux.DefaultConnsPerReplica, mux.ClientConfig{
			Fingerprint: fingerprint,
			Counters:    c.muxCounters,
		})
		if old := c.muxPool.Swap(p); old != nil {
			old.Close()
		}
	}
	if p.OpenConns() > 0 {
		return nil
	}
	_, err := p.Get(ctx)
	return err
}

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

// Reachable asks the replica one query, with GET /v1/reachable's
// semantics: an unknown vertex is a 400 *StatusError, and the answer
// says whether the replica's cache supplied it. Like a batch, the query
// goes as a frame over the stream transport when both IDs fit u32 (a
// single frame, retried as viaMux retries a batch), and as GET
// /v1/reachable otherwise.
func (c *Client) Reachable(ctx context.Context, u, v uint64) (server.ReachableResponse, error) {
	if u > math.MaxUint32 || v > math.MaxUint32 {
		var rr server.ReachableResponse
		err := c.get(ctx, fmt.Sprintf("/v1/reachable?u=%d&v=%d", u, v), &rr)
		return rr, err
	}
	// A separate rr from the GET's keeps this one off the heap.
	rr := server.ReachableResponse{U: u, V: v}
	err := c.viaMux(ctx, func(cn *mux.Conn, trace string) (err error) {
		rr.Reachable, rr.Cached, err = cn.Single(ctx, uint32(u), uint32(v), trace)
		return err
	})
	return rr, err
}

// Batch sends pairs to the replica and returns the in-order results. A
// reply whose result count does not match the pair count is a protocol
// violation and is reported as an error rather than silently
// misaligned.
//
// The encoding follows from the batch alone: pairs go as one wireproto
// frame over the stream transport, or as JSON over HTTP when any ID
// exceeds the frame format's uint32 range (the JSON path carries u64
// IDs). Replica verdicts, an HTTP error status or an in-band error
// frame alike, surface as *StatusError; any other error is a transport
// failure, which the router answers by ejecting the replica and failing
// over. Reachable follows the same rules.
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
	return c.batchMux(ctx, p32)
}

// batchMux sends pairs over the stream transport.
func (c *Client) batchMux(ctx context.Context, pairs [][2]uint32) ([]bool, error) {
	out := make([]bool, len(pairs))
	if err := c.viaMux(ctx, func(cn *mux.Conn, trace string) error {
		return cn.Batch(ctx, pairs, out, trace)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// viaMux runs one request, a batch or a single query, on a connection
// of the replica's stream-transport pool, with ctx's trace ID. A
// request whose connection fails under it (the stream dies, or the dial
// for a fresh connection fails) is retried once on another pool
// connection, so one lost connection does not eject a live replica; a
// second failure is returned for the router to eject the replica and
// fail over. Error frames are the replica's verdict and surface as
// *StatusError exactly like HTTP statuses, so the router's
// retry/failover policy is transport-blind.
func (c *Client) viaMux(ctx context.Context, call func(cn *mux.Conn, trace string) error) error {
	p := c.muxPool.Load()
	if p == nil {
		return errNoMux
	}
	trace := obs.TraceFrom(ctx)
	var err error
	for range 2 {
		var cn *mux.Conn
		if cn, err = p.Get(ctx); err == nil {
			if err = call(cn, trace); err == nil {
				return nil
			}
		}
		var f *mux.Fail
		if errors.As(err, &f) {
			return &StatusError{Status: f.Status, Body: f.Msg}
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
	}
	return err
}

// resolveMuxAddr turns a replica's advertised mux address into a
// dialable one. Replicas advertise whatever their listener bound; a
// wildcard host (":9090", "0.0.0.0:9090", "[::]:9090") names every
// interface and none, so the router substitutes the host it already
// reaches the replica's HTTP API on. Returns "" for an unparseable
// advertisement, which leaves the replica unenrolled.
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

// clientScratch holds one batch's narrowed pairs; the stream transport
// copies them into its own frame buffer before Batch returns, so the
// slice is reusable once the call ends.
type clientScratch struct {
	pairs [][2]uint32
}

var clientScratchPool = sync.Pool{New: func() any { return new(clientScratch) }}

// CloseIdleConnections releases the client's pooled keep-alive
// connections — HTTP keep-alives and the mux pool both.
func (c *Client) CloseIdleConnections() {
	c.hc.CloseIdleConnections()
	if old := c.muxPool.Load(); old != nil && c.muxPool.CompareAndSwap(old, nil) {
		old.Close()
	}
}
