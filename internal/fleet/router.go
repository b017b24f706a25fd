// Package fleet is the horizontal-scaling layer above reachd: a thin
// scatter-gather router in front of N replicas that all mmap-serve the
// same snapshot. The oracle index is an immutable, tiny artifact —
// exactly the thing you replicate rather than recompute — so the router
// needs no graph, no index and no cache of its own: it health-checks
// replicas by snapshot fingerprint (refusing to enroll one serving a
// different graph), balances single queries with power-of-two-choices on
// in-flight counts, splits batches into per-replica sub-batches merged
// back in pair order, retries 429s and replica failures on another
// replica, and ejects dead replicas until a backoff probe re-admits
// them.
package fleet

import (
	"context"
	"errors"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mux"
	"repro/internal/obs"
	"repro/internal/server"
)

// Defaults for Config's zero values.
const (
	DefaultProbeInterval   = time.Second
	DefaultProbeTimeout    = 2 * time.Second
	DefaultMaxProbeBackoff = 30 * time.Second
	DefaultMaxAttempts     = 3
	DefaultMinSubBatch     = 64
	DefaultMaxBatchPairs   = 1 << 20
)

// Config tunes the router. Replicas is required; every other zero value
// picks the package default.
type Config struct {
	// Replicas are the base URLs of the reachd replicas to front.
	Replicas []string
	// ProbeInterval is the health-check cadence for enrolled replicas.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe.
	ProbeTimeout time.Duration
	// MaxProbeBackoff caps the exponential backoff between re-probes of
	// a dead replica (backoff starts at ProbeInterval and doubles per
	// consecutive failure).
	MaxProbeBackoff time.Duration
	// MaxAttempts is how many distinct replicas one query or sub-batch
	// may be tried on before the router gives up.
	MaxAttempts int
	// MinSubBatch is the smallest sub-batch worth dispatching: a batch
	// splits across at most floor(len/MinSubBatch) replicas, so every
	// sub-batch carries at least MinSubBatch pairs and batches below
	// 2*MinSubBatch skip fan-out entirely.
	MinSubBatch int
	// MaxBatchPairs rejects oversized /v1/batch requests before they
	// are scattered (default 1<<20, matching reachd).
	MaxBatchPairs int
	// UpstreamTimeout bounds each routed attempt on one replica, over
	// mux or HTTP (default none — the caller's own deadline governs).
	// An attempt that outlives it ejects the replica and fails over.
	// Health probes and stats fetches have ProbeTimeout instead.
	UpstreamTimeout time.Duration
	// Logf receives operational events (enrollment, ejection,
	// mismatches). Defaults to log.Printf; tests silence it.
	Logf func(format string, args ...any)
	// SlowQueryThreshold enables the slow-query log: routed requests
	// slower than this emit one JSON line to SlowQueryWriter. Zero
	// disables it.
	SlowQueryThreshold time.Duration
	// SlowQueryWriter receives slow-query JSON lines (default os.Stderr
	// when SlowQueryThreshold is set).
	SlowQueryWriter io.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// router's mux.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.MaxProbeBackoff <= 0 {
		c.MaxProbeBackoff = DefaultMaxProbeBackoff
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.MinSubBatch <= 0 {
		c.MinSubBatch = DefaultMinSubBatch
	}
	if c.MaxBatchPairs <= 0 {
		c.MaxBatchPairs = DefaultMaxBatchPairs
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.SlowQueryThreshold > 0 && c.SlowQueryWriter == nil {
		c.SlowQueryWriter = os.Stderr
	}
	return c
}

// ErrNoReplicas means no healthy replica is enrolled right now; the HTTP
// layer maps it to 503.
var ErrNoReplicas = errors.New("no healthy replicas")

// Replica lifecycle states.
const (
	stateProbing    int32 = iota // never successfully probed yet
	stateHealthy                 // enrolled and serving
	stateDown                    // unreachable; re-probed with backoff
	stateMismatched              // alive but serving a different graph
)

func stateName(s int32) string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDown:
		return "down"
	case stateMismatched:
		return "mismatched"
	default:
		return "probing"
	}
}

// identity is what a replica's /v1/healthz claims it serves, plus the
// build identity of the binary serving it.
type identity struct {
	Fingerprint string
	Method      string
	Vertices    int
	GoVersion   string
	Revision    string
}

// replica is the router's view of one backend.
type replica struct {
	base   string
	client *Client

	state    atomic.Int32
	inflight atomic.Int64
	ident    atomic.Pointer[identity] // last successful probe's claim

	// Router-side counters (what this router sent, not what the replica
	// served overall).
	requests atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64 // 429s received from this replica

	// rtt tracks this replica's upstream round-trip latency as measured
	// by the router (one sample per routed call, failures included).
	rtt *obs.Histogram

	// Probe bookkeeping, guarded by mu.
	mu          sync.Mutex
	consecFails int
	nextProbe   time.Time
	probing     bool // a probe is in flight; don't start a second
}

// Router fans queries out over the fleet. Create with New, release with
// Close.
type Router struct {
	cfg      Config
	replicas []*replica

	// baseCtx parents every probe context, so probes observe the
	// caller's cancellation (shutdown) instead of running detached.
	baseCtx context.Context

	// identMu guards fleetIdent, the fleet's established serving
	// identity: the first successfully probed replica defines it and
	// later replicas must match its fingerprint to enroll.
	identMu    sync.Mutex
	fleetIdent *identity

	met routerMetrics

	stop     chan struct{}
	probesWG sync.WaitGroup
}

type routerMetrics struct {
	start         time.Time
	requests      atomic.Int64 // single queries routed
	batchRequests atomic.Int64
	subBatches    atomic.Int64 // sub-batches scattered (retried dispatches count under retries)
	retries       atomic.Int64 // extra attempts after a failed/refused one
	upstream429   atomic.Int64 // 429s absorbed by failover
	failovers     atomic.Int64 // transport failures that ejected a replica
	noReplicas    atomic.Int64 // requests failed for want of any replica
	probes        atomic.Int64 // health probes issued (successful or not)

	reg *obs.Registry
	// Request-level histograms, intentionally named the same as reachd's
	// (reach_http_request_seconds{endpoint=...}) so one scrape query
	// covers both tiers; the router's samples include scatter, upstream
	// round trips and gather.
	reqReachable *obs.Histogram
	reqBatch     *obs.Histogram
	// Scatter/gather stage histograms for batches.
	scatterDur *obs.Histogram
	// JSON edge stage histograms for batches: reading and parsing the
	// body, and encoding the answer.
	edgeDecode *obs.Histogram
	edgeEncode *obs.Histogram

	// muxTraffic tallies the frames every replica client's mux pool
	// exchanges, exposed as reach_mux_frames_total /
	// reach_mux_bytes_total under the replicas' own series names, so one
	// scrape query shows both tiers (tx here is rx there).
	muxTraffic mux.Counters
	// wire does the same for the JSON sub-batches (IDs wider than u32)
	// that go over HTTP instead.
	wire wireCounters

	slow *obs.SlowLog
}

func (m *routerMetrics) uptimeSeconds() float64 { return time.Since(m.start).Seconds() }

// init builds the registry and registers everything derivable from the
// metrics struct itself; per-replica and fleet-level series are added in
// New once the replica set exists.
func (m *routerMetrics) init() {
	m.start = time.Now()
	m.reg = obs.NewRegistry()
	m.reqReachable = m.reg.Histogram("reach_http_request_seconds",
		"End-to-end latency of routed query requests, including scatter, upstream round trips and gather.",
		obs.Labels{"endpoint": "reachable"})
	m.reqBatch = m.reg.Histogram("reach_http_request_seconds",
		"End-to-end latency of routed query requests, including scatter, upstream round trips and gather.",
		obs.Labels{"endpoint": "batch"})
	m.scatterDur = m.reg.Histogram("reach_router_scatter_seconds",
		"Latency of one scatter/gather round: splitting a batch, dispatching sub-batches and merging answers.",
		nil)
	m.edgeDecode = m.reg.Histogram("reach_router_stage_seconds",
		"Per-stage latency at the router's JSON edge: edge_decode reads and parses a /v1/batch body, edge_encode encodes its answer.",
		obs.Labels{"stage": "edge_decode"})
	m.edgeEncode = m.reg.Histogram("reach_router_stage_seconds",
		"Per-stage latency at the router's JSON edge: edge_decode reads and parses a /v1/batch body, edge_encode encodes its answer.",
		obs.Labels{"stage": "edge_encode"})
	m.reg.CounterFunc("reach_router_requests_total", "Single queries routed.", nil, m.requests.Load)
	m.reg.CounterFunc("reach_router_batch_requests_total", "Batch requests routed.", nil, m.batchRequests.Load)
	m.reg.CounterFunc("reach_router_sub_batches_total", "Sub-batches scattered to replicas.", nil, m.subBatches.Load)
	m.reg.CounterFunc("reach_router_retries_total", "Extra routing attempts after a failed or refused one.", nil, m.retries.Load)
	m.reg.CounterFunc("reach_router_upstream_429_total", "429 responses absorbed by failover.", nil, m.upstream429.Load)
	m.reg.CounterFunc("reach_router_failovers_total", "Transport failures that ejected a replica.", nil, m.failovers.Load)
	m.reg.CounterFunc("reach_router_no_replica_errors_total", "Requests failed for want of any healthy replica.", nil, m.noReplicas.Load)
	m.reg.CounterFunc("reach_router_probes_total", "Health probes issued to replicas.", nil, m.probes.Load)
	m.reg.CounterFunc("reach_wire_frames_total", "JSON sub-batches sent to replicas over HTTP (batches holding an ID wider than u32).",
		obs.Labels{"encoding": "json"}, m.wire.framesJSON.Load)
	m.reg.CounterFunc("reach_wire_bytes_total", "JSON batch body bytes exchanged with replicas, by direction (tx = requests sent, rx = responses read) and encoding.",
		obs.Labels{"direction": "rx", "encoding": "json"}, m.wire.rxJSON.Load)
	m.reg.CounterFunc("reach_wire_bytes_total", "JSON batch body bytes exchanged with replicas, by direction (tx = requests sent, rx = responses read) and encoding.",
		obs.Labels{"direction": "tx", "encoding": "json"}, m.wire.txJSON.Load)
	m.reg.CounterFunc("reach_mux_frames_total", "Stream-transport frames exchanged with replicas, by direction (tx = requests sent, rx = responses read).",
		obs.Labels{"direction": "tx"}, m.muxTraffic.FramesTx.Load)
	m.reg.CounterFunc("reach_mux_frames_total", "Stream-transport frames exchanged with replicas, by direction (tx = requests sent, rx = responses read).",
		obs.Labels{"direction": "rx"}, m.muxTraffic.FramesRx.Load)
	m.reg.CounterFunc("reach_mux_bytes_total", "Stream-transport bytes exchanged with replicas, by direction (tx = sent, rx = read), envelopes and trace fields included.",
		obs.Labels{"direction": "tx"}, m.muxTraffic.BytesTx.Load)
	m.reg.CounterFunc("reach_mux_bytes_total", "Stream-transport bytes exchanged with replicas, by direction (tx = sent, rx = read), envelopes and trace fields included.",
		obs.Labels{"direction": "rx"}, m.muxTraffic.BytesRx.Load)
	// m.slow is assigned after init returns; the closure (unlike a method
	// value) picks up the final pointer at scrape time.
	m.reg.CounterFunc("reach_router_slow_queries_total", "Routed requests recorded in the slow-query log.", nil,
		func() int64 { return m.slow.Emitted() })
	m.reg.GaugeFunc("reach_uptime_seconds", "Seconds since the router was created.", nil,
		func() float64 { return time.Since(m.start).Seconds() })
	bi := obs.BuildInfo()
	m.reg.GaugeFunc("reach_build_info", "Build metadata carried as labels; the value is fixed at 1.",
		obs.Labels{"go_version": bi.GoVersion, "revision": bi.Revision}, func() float64 { return 1 })
}

// New builds a router over cfg.Replicas, runs one synchronous probe
// round so an immediately following query finds whatever is already up,
// and starts the background probe loop. It does not require any replica
// to be alive yet — a router may legitimately start before its fleet.
//
// ctx parents every background probe: cancelling it stops in-flight
// health checks (Close still stops the probe loop itself).
func New(ctx context.Context, cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: no replicas configured")
	}
	if ctx == nil {
		return nil, errors.New("fleet: nil base context")
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	rt := &Router{cfg: cfg, baseCtx: ctx, stop: make(chan struct{})}
	rt.met.init()
	rt.met.slow = obs.NewSlowLog(cfg.SlowQueryWriter, cfg.SlowQueryThreshold)
	for _, base := range cfg.Replicas {
		if base == "" || seen[base] {
			return nil, errors.New("fleet: replica URLs must be non-empty and unique")
		}
		seen[base] = true
		client := NewClient(base)
		// All replica clients account into the router's shared wire and
		// mux traffic counters instead of their private ones.
		client.counters = &rt.met.wire
		client.muxCounters = &rt.met.muxTraffic
		rt.replicas = append(rt.replicas, &replica{
			base:   base,
			client: client,
			rtt: rt.met.reg.Histogram("reach_router_upstream_seconds",
				"Round-trip latency of one routed call to a replica, as measured by the router.",
				obs.Labels{"replica": base}),
		})
	}
	rt.met.reg.GaugeFunc("reach_router_replicas_healthy", "Replicas currently enrolled and serving.", nil,
		func() float64 { return float64(rt.numHealthy(nil)) })
	rt.met.reg.GaugeFunc("reach_router_replicas_total", "Replicas configured, healthy or not.", nil,
		func() float64 { return float64(len(rt.replicas)) })
	rt.met.reg.GaugeFunc("reach_mux_conns", "Open stream-transport (mux) connections across all replicas.", nil,
		func() float64 {
			n := 0
			for _, r := range rt.replicas {
				n += r.client.MuxOpenConns()
			}
			return float64(n)
		})
	var wg sync.WaitGroup
	for _, r := range rt.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			rt.probe(r)
		}(r)
	}
	wg.Wait()
	rt.probesWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the probe loop and releases pooled connections.
func (rt *Router) Close() {
	close(rt.stop)
	rt.probesWG.Wait()
	for _, r := range rt.replicas {
		r.client.CloseIdleConnections()
	}
}

// probeLoop re-checks replicas forever: healthy ones every
// ProbeInterval, dead ones per their backoff schedule. Ticking at a
// fraction of the interval keeps backoff wake-ups reasonably on time
// without busy-polling.
func (rt *Router) probeLoop() {
	defer rt.probesWG.Done()
	tick := rt.cfg.ProbeInterval / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		for _, r := range rt.replicas {
			r.mu.Lock()
			due := !r.probing && !now.Before(r.nextProbe)
			if due {
				r.probing = true
			}
			r.mu.Unlock()
			if due {
				rt.probesWG.Add(1)
				go func(r *replica) {
					defer rt.probesWG.Done()
					rt.probe(r)
				}(r)
			}
		}
	}
}

// probe health-checks one replica and moves it through the lifecycle:
// healthy on a fingerprint match plus a live mux connection, mismatched
// on a conflicting claim, down (with exponential re-probe backoff) when
// unreachable or when its stream transport is.
func (rt *Router) probe(r *replica) {
	rt.met.probes.Add(1)
	ctx, cancel := context.WithTimeout(rt.baseCtx, rt.cfg.ProbeTimeout)
	defer cancel()
	hz, err := r.client.Healthz(ctx)
	var id identity
	matched := false
	if err == nil {
		id = identity{
			Fingerprint: hz.Fingerprint, Method: hz.Method, Vertices: hz.Vertices,
			GoVersion: hz.GoVersion, Revision: hz.Revision,
		}
		r.ident.Store(&id)
		if matched = rt.enroll(&id); matched {
			// Sub-batches travel only over the stream transport, so the
			// replica is up only if this same probe holds a live mux
			// connection to it: one from earlier, or one it just dialed
			// and handshook.
			err = r.client.UseMux(ctx, resolveMuxAddr(r.base, hz.Mux), hz.Fingerprint)
		}
	}

	r.mu.Lock()
	defer func() {
		r.probing = false
		r.mu.Unlock()
	}()
	if err != nil {
		r.consecFails++
		backoff := rt.cfg.ProbeInterval << (r.consecFails - 1)
		if backoff > rt.cfg.MaxProbeBackoff || backoff <= 0 {
			backoff = rt.cfg.MaxProbeBackoff
		}
		r.nextProbe = time.Now().Add(backoff)
		if prev := r.state.Swap(stateDown); prev != stateDown {
			rt.cfg.Logf("fleet: replica %s down (%v); next probe in %s", r.base, err, backoff)
		}
		return
	}
	r.consecFails = 0
	r.nextProbe = time.Now().Add(rt.cfg.ProbeInterval)
	if !matched {
		if prev := r.state.Swap(stateMismatched); prev != stateMismatched {
			rt.cfg.Logf("fleet: REFUSING replica %s: it serves fingerprint %s, fleet serves %s — mixed-graph fleets return wrong answers",
				r.base, id.Fingerprint, rt.FleetIdentity().Fingerprint)
		}
		return
	}
	if prev := r.state.Swap(stateHealthy); prev != stateHealthy {
		rt.cfg.Logf("fleet: replica %s enrolled (%s index, %d vertices, fingerprint %s)",
			r.base, id.Method, id.Vertices, id.Fingerprint)
	}
}

// enroll checks id against the fleet identity, establishing it from the
// first successful probe. Only the fingerprint gates enrollment: two
// replicas serving the same graph through different index methods answer
// identically, just at different speeds.
func (rt *Router) enroll(id *identity) bool {
	rt.identMu.Lock()
	defer rt.identMu.Unlock()
	if rt.fleetIdent == nil {
		rt.fleetIdent = id
		return true
	}
	return rt.fleetIdent.Fingerprint == id.Fingerprint
}

// FleetIdentity returns the established serving identity (zero until any
// replica has been successfully probed).
func (rt *Router) FleetIdentity() identity {
	rt.identMu.Lock()
	defer rt.identMu.Unlock()
	if rt.fleetIdent == nil {
		return identity{}
	}
	return *rt.fleetIdent
}

// markDown ejects a replica after a failed request and schedules a quick
// re-probe; the probe loop takes over the backoff from there.
func (rt *Router) markDown(r *replica) {
	if r.state.CompareAndSwap(stateHealthy, stateDown) {
		rt.met.failovers.Add(1)
		rt.cfg.Logf("fleet: replica %s ejected after request failure", r.base)
	}
	r.mu.Lock()
	if r.consecFails == 0 {
		r.consecFails = 1
	}
	r.nextProbe = time.Now()
	r.mu.Unlock()
}

// numHealthy counts the currently enrolled replicas, excluding skip.
func (rt *Router) numHealthy(skip map[*replica]bool) int {
	n := 0
	for _, r := range rt.replicas {
		if r.state.Load() == stateHealthy && !skip[r] {
			n++
		}
	}
	return n
}

// pick chooses a replica by power-of-two-choices: sample two distinct
// candidates uniformly and take the one with fewer in-flight requests.
// That is within a constant factor of ideal least-loaded balancing
// without any shared counter contention or O(N) scan coordination.
// math/rand/v2's top-level generators are per-thread (no global mutex),
// so concurrent picks don't serialize the hot path. The candidates are
// counted, then found by rank, never collected, so a pick allocates
// nothing; if one changes state between the two scans, the other wins.
func (rt *Router) pick(skip map[*replica]bool) *replica {
	n := rt.numHealthy(skip)
	if n == 0 {
		return nil
	}
	i, j := 0, -1 // ranks of the two samples among the candidates
	if n > 1 {
		i, j = rand.IntN(n), rand.IntN(n-1)
		if j >= i {
			j++
		}
	}
	var a, b *replica
	k := 0
	for _, r := range rt.replicas {
		if r.state.Load() != stateHealthy || skip[r] {
			continue
		}
		if k == i {
			a = r
		} else if k == j {
			b = r
		}
		k++
	}
	if a == nil || (b != nil && b.inflight.Load() < a.inflight.Load()) {
		return b
	}
	return a
}

// route runs call against up to MaxAttempts distinct replicas, ejecting
// ones that fail at the transport level (an attempt that outlives
// UpstreamTimeout included) and moving past 429/5xx answers.
// Non-retryable upstream statuses (a 400 for a bad vertex ID) and the
// caller's own context ending stop the loop immediately.
func route[T any](rt *Router, ctx context.Context, call func(context.Context, *Client) (T, error)) (T, error) {
	var zero T
	var lastErr error
	maxRetryAfter := 0 // largest Retry-After hint seen across 429s
	skip := make(map[*replica]bool, rt.cfg.MaxAttempts)
	for attempt := 0; attempt < rt.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		r := rt.pick(skip)
		if r == nil {
			break // nothing (left) to try
		}
		if attempt > 0 {
			rt.met.retries.Add(1)
		}
		skip[r] = true
		r.requests.Add(1)
		r.inflight.Add(1)
		t0 := time.Now()
		actx, cancel := ctx, context.CancelFunc(func() {})
		if rt.cfg.UpstreamTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, rt.cfg.UpstreamTimeout)
		}
		res, err := call(actx, r.client)
		cancel()
		r.rtt.RecordSince(t0)
		r.inflight.Add(-1)
		if err == nil {
			return res, nil
		}
		lastErr = err
		var se *StatusError
		switch {
		case errors.As(err, &se):
			if se.Status == http.StatusTooManyRequests {
				// The replica shed load; another may have room right
				// now, so failing over beats honoring Retry-After by
				// sleeping. Only when every replica refuses does the
				// router relay the 429 (with the largest hint) upward.
				r.rejected.Add(1)
				rt.met.upstream429.Add(1)
				if se.RetryAfter > maxRetryAfter {
					maxRetryAfter = se.RetryAfter
				}
				continue
			}
			r.errors.Add(1)
			if !se.Retryable() {
				return zero, err
			}
		case ctx.Err() != nil:
			// The transport error is our own deadline/cancellation
			// surfacing, not replica death — don't eject anyone.
			return zero, ctx.Err()
		default:
			// Transport failure: treat the replica as dead and fail over.
			r.errors.Add(1)
			rt.markDown(r)
		}
	}
	if lastErr == nil {
		rt.met.noReplicas.Add(1)
		return zero, ErrNoReplicas
	}
	// When the final verdict is "every replica shed", surface the most
	// conservative backoff hint any of them gave, not the last one's.
	var se *StatusError
	if errors.As(lastErr, &se) && se.Status == http.StatusTooManyRequests && maxRetryAfter > se.RetryAfter {
		se.RetryAfter = maxRetryAfter
	}
	return zero, lastErr
}

// Reachable routes one query to some healthy replica.
func (rt *Router) Reachable(ctx context.Context, u, v uint64) (server.ReachableResponse, error) {
	rt.met.requests.Add(1)
	return route(rt, ctx, func(ctx context.Context, c *Client) (server.ReachableResponse, error) {
		return c.Reachable(ctx, u, v)
	})
}

// Batch scatters pairs over the healthy replicas as contiguous
// sub-batches and gathers the answers back into pair order. Results[i]
// always answers pairs[i]: each sub-batch owns a fixed [lo,hi) window of
// the result slice, so merge order is positional and immune to the
// completion order of replicas. A sub-batch whose replica fails is
// retried on another (bounded by MaxAttempts); if any sub-batch
// ultimately fails the whole batch errors, because a partial answer
// misaligned with its pairs is worse than none.
func (rt *Router) Batch(ctx context.Context, pairs [][2]uint64) ([]bool, error) {
	rt.met.batchRequests.Add(1)
	t0 := time.Now()
	defer rt.met.scatterDur.RecordSince(t0)
	n := len(pairs)
	if n == 0 {
		return []bool{}, nil
	}
	h := rt.numHealthy(nil)
	if h == 0 {
		rt.met.noReplicas.Add(1)
		return nil, ErrNoReplicas
	}
	// Floor division: a batch only scatters into sub-batches that are
	// each at least MinSubBatch pairs, so small batches skip fan-out
	// entirely instead of paying several round trips for slivers.
	chunks := min(max(n/rt.cfg.MinSubBatch, 1), h)
	sendOne := func(ctx context.Context, sub [][2]uint64) ([]bool, error) {
		rt.met.subBatches.Add(1)
		return route(rt, ctx, func(ctx context.Context, c *Client) ([]bool, error) {
			return c.Batch(ctx, sub)
		})
	}
	if chunks == 1 {
		return sendOne(ctx, pairs)
	}

	out := make([]bool, n)
	per := (n + chunks - 1) / chunks
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		gathErr error
	)
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			res, err := sendOne(ctx, pairs[lo:hi])
			if err != nil {
				errMu.Lock()
				if gathErr == nil {
					gathErr = err
				}
				errMu.Unlock()
				cancel() // sibling sub-batches are wasted work now
				return
			}
			copy(out[lo:hi], res)
		}(lo, hi)
	}
	wg.Wait()
	if gathErr != nil {
		return nil, gathErr
	}
	return out, nil
}
