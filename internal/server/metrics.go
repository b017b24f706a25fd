package server

import (
	"sync/atomic"
	"time"

	"repro/internal/mux"
	"repro/internal/obs"
	"repro/internal/observe"
)

// metrics aggregates serving counters with lock-free atomics and
// per-stage latency histograms; every handler goroutine bumps them
// concurrently. The histograms answer the question the paper's claims
// hinge on — where do the microseconds go — stage by stage: whole
// request, cache lookup and index probe (for the pairs the observers
// leave undecided), batch chunk dispatch.
type metrics struct {
	start         time.Time
	queries       atomic.Int64 // pair-queries answered (single + batch)
	batchRequests atomic.Int64
	positive      atomic.Int64
	negative      atomic.Int64
	errors        atomic.Int64 // requests rejected with 4xx/5xx
	rejected      atomic.Int64 // 429s from the max-in-flight gate (not in errors)
	timedOut      atomic.Int64 // requests abandoned at their deadline (also in errors)
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64

	// JSON batch traffic on /v1/batch (direct clients, and routers
	// whose batch holds an ID wider than a frame carries; frames travel
	// over the stream transport and are counted in reach_mux_*). rx is
	// request-body bytes read, tx response-body bytes written.
	wireFramesJSON atomic.Int64
	wireRxJSON     atomic.Int64
	wireTxJSON     atomic.Int64

	reg *obs.Registry
	// Request-level histograms, one per query endpoint. reqMux is the
	// batch endpoint served over the stream transport; its clock starts
	// at batch-function entry (the transport decoded the frame already),
	// the others at HTTP handler entry.
	reqReachable *obs.Histogram
	reqBatch     *obs.Histogram
	reqMux       *obs.Histogram
	// Stage histograms, recorded per pair (cache/probe) or per chunk.
	cacheDur *obs.Histogram
	probeDur *obs.Histogram
	chunkDur *obs.Histogram

	slow *obs.SlowLog
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now(), reg: obs.NewRegistry()}
	m.reqReachable = m.reg.Histogram("reach_http_request_seconds",
		"End-to-end latency of query requests, from handler entry to response write.",
		obs.Labels{"endpoint": "reachable"})
	m.reqBatch = m.reg.Histogram("reach_http_request_seconds",
		"End-to-end latency of query requests, from handler entry to response write.",
		obs.Labels{"endpoint": "batch"})
	m.reqMux = m.reg.Histogram("reach_http_request_seconds",
		"End-to-end latency of query requests, from handler entry to response write.",
		obs.Labels{"endpoint": "mux"})
	m.cacheDur = m.reg.Histogram("reach_stage_seconds",
		"Per-stage serving latency: cache_lookup per pair the observers leave undecided, index_probe per such pair the cache does not answer, chunk_dispatch per batch chunk.",
		obs.Labels{"stage": "cache_lookup"})
	m.probeDur = m.reg.Histogram("reach_stage_seconds",
		"Per-stage serving latency: cache_lookup per pair the observers leave undecided, index_probe per such pair the cache does not answer, chunk_dispatch per batch chunk.",
		obs.Labels{"stage": "index_probe"})
	m.chunkDur = m.reg.Histogram("reach_stage_seconds",
		"Per-stage serving latency: cache_lookup per pair the observers leave undecided, index_probe per such pair the cache does not answer, chunk_dispatch per batch chunk.",
		obs.Labels{"stage": "chunk_dispatch"})
	m.reg.CounterFunc("reach_queries_total", "Pair queries answered (single and batch).", nil, m.queries.Load)
	m.reg.CounterFunc("reach_positive_total", "Pair queries answered reachable.", nil, m.positive.Load)
	m.reg.CounterFunc("reach_negative_total", "Pair queries answered unreachable.", nil, m.negative.Load)
	m.reg.CounterFunc("reach_batch_requests_total", "POST /v1/batch requests accepted.", nil, m.batchRequests.Load)
	m.reg.CounterFunc("reach_errors_total", "Requests answered 4xx/5xx.", nil, m.errors.Load)
	m.reg.CounterFunc("reach_rejected_total", "Requests shed with 429 by the max-in-flight gate.", nil, m.rejected.Load)
	m.reg.CounterFunc("reach_timed_out_total", "Requests abandoned at their deadline.", nil, m.timedOut.Load)
	m.reg.CounterFunc("reach_wire_frames_total", "Batch requests handled on /v1/batch, by encoding.",
		obs.Labels{"encoding": "json"}, m.wireFramesJSON.Load)
	m.reg.CounterFunc("reach_wire_bytes_total", "Batch body bytes on /v1/batch, by direction (rx = requests read, tx = responses written) and encoding.",
		obs.Labels{"direction": "rx", "encoding": "json"}, m.wireRxJSON.Load)
	m.reg.CounterFunc("reach_wire_bytes_total", "Batch body bytes on /v1/batch, by direction (rx = requests read, tx = responses written) and encoding.",
		obs.Labels{"direction": "tx", "encoding": "json"}, m.wireTxJSON.Load)
	// m.slow is assigned after newMetrics returns; the closure (unlike a
	// method value) picks up the final pointer at scrape time.
	m.reg.CounterFunc("reach_slow_queries_total", "Requests recorded in the slow-query log.", nil,
		func() int64 { return m.slow.Emitted() })
	m.reg.GaugeFunc("reach_uptime_seconds", "Seconds since the server was created.", nil,
		func() float64 { return time.Since(m.start).Seconds() })
	bi := obs.BuildInfo()
	m.reg.GaugeFunc("reach_build_info", "Build metadata carried as labels; the value is fixed at 1.",
		obs.Labels{"go_version": bi.GoVersion, "revision": bi.Revision}, func() float64 { return 1 })
	return m
}

// registerServer adds the gauges that need the fully-wired Server: the
// cache, the admission gate and the index exist only after New finishes
// its setup.
func (m *metrics) registerServer(s *Server) {
	if s.cache != nil {
		m.reg.CounterFunc("reach_cache_hits_total", "Query cache hits.", nil, m.cacheHits.Load)
		m.reg.CounterFunc("reach_cache_misses_total", "Query cache misses, each one an index probe.", nil, m.cacheMisses.Load)
		m.reg.GaugeFunc("reach_cache_entries", "Entries resident in the query cache.", nil,
			func() float64 { return float64(s.cache.len()) })
	}
	if s.gate != nil {
		m.reg.GaugeFunc("reach_in_flight", "Query requests currently holding a gate slot.", nil,
			func() float64 { return float64(len(s.gate)) })
	}
	m.reg.GaugeFunc("reach_index_size_ints", "Index size in integers.",
		obs.Labels{"method": s.oracle.Method()},
		func() float64 { return float64(s.oracle.IndexSizeInts()) })
	// One counter per observer kind, even with observers disabled: the
	// closures read through the oracle at scrape time, so the series
	// simply stay at 0 (and spring to life if a future oracle re-enables
	// the stack) rather than appearing and disappearing.
	for _, kind := range observe.Kinds() {
		kind := kind
		m.reg.CounterFunc("reach_observer_hits_total",
			"Pair queries decided by the observer fast path, by observer.",
			obs.Labels{"observer": kind.String()},
			func() int64 {
				if st := s.oracle.Observers(); st != nil {
					return st.Hits(kind)
				}
				return 0
			})
	}
}

// registerMux adds the stream-transport (internal/mux) series. Called
// from NewMuxServer rather than newMetrics: without a mux listener the
// series don't exist, matching how healthz omits the "mux" field.
func (m *metrics) registerMux(ms *mux.Server) {
	t := ms.Traffic()
	m.reg.GaugeFunc("reach_mux_conns", "Open stream-transport (mux) connections.", nil,
		func() float64 { return float64(ms.OpenConns()) })
	m.reg.CounterFunc("reach_mux_frames_total", "Stream-transport frames, by direction (rx = requests read, tx = responses written).",
		obs.Labels{"direction": "rx"}, t.FramesRx.Load)
	m.reg.CounterFunc("reach_mux_frames_total", "Stream-transport frames, by direction (rx = requests read, tx = responses written).",
		obs.Labels{"direction": "tx"}, t.FramesTx.Load)
	m.reg.CounterFunc("reach_mux_bytes_total", "Stream-transport bytes on the wire, by direction (rx = read, tx = written), envelopes and trace fields included.",
		obs.Labels{"direction": "rx"}, t.BytesRx.Load)
	m.reg.CounterFunc("reach_mux_bytes_total", "Stream-transport bytes on the wire, by direction (rx = read, tx = written), envelopes and trace fields included.",
		obs.Labels{"direction": "tx"}, t.BytesTx.Load)
}

// recordChunk folds one chunk's (or one single query's) local query
// and cache counters into the server-wide atomics in one shot, keeping
// atomic traffic out of the per-pair loop.
func (m *metrics) recordChunk(cs *chunkStats) {
	m.queries.Add(cs.queries)
	m.positive.Add(cs.positive)
	m.negative.Add(cs.queries - cs.positive)
	m.cacheHits.Add(cs.cacheHits)
	m.cacheMisses.Add(cs.cacheMisses)
}

// cacheStats is the cache section of /v1/stats: the table's size and
// occupancy with the hit and miss counts recordChunk folded in.
func (m *metrics) cacheStats(c *cache) CacheStats {
	s := CacheStats{
		Capacity: c.capacity(),
		Entries:  c.len(),
		Hits:     m.cacheHits.Load(),
		Misses:   m.cacheMisses.Load(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// ServerStats is the server section of /v1/stats.
type ServerStats struct {
	Queries       int64   `json:"queries"`
	BatchRequests int64   `json:"batch_requests"`
	Positive      int64   `json:"positive"`
	Negative      int64   `json:"negative"`
	Errors        int64   `json:"errors"`
	Rejected      int64   `json:"rejected"`
	TimedOut      int64   `json:"timed_out"`
	SlowQueries   int64   `json:"slow_queries"`
	InFlight      int     `json:"in_flight"`
	MaxInFlight   int     `json:"max_in_flight"`
	Workers       int     `json:"workers"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (m *metrics) snapshot(workers, inFlight, maxInFlight int) ServerStats {
	return ServerStats{
		Queries:       m.queries.Load(),
		BatchRequests: m.batchRequests.Load(),
		Positive:      m.positive.Load(),
		Negative:      m.negative.Load(),
		Errors:        m.errors.Load(),
		Rejected:      m.rejected.Load(),
		TimedOut:      m.timedOut.Load(),
		SlowQueries:   m.slow.Emitted(),
		InFlight:      inFlight,
		MaxInFlight:   maxInFlight,
		Workers:       workers,
		UptimeSeconds: time.Since(m.start).Seconds(),
	}
}
