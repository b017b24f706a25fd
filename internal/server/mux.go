package server

// The mux batch path: the same batch semantics as /v1/batch — results[i]
// answers pairs[i], unknown vertices answer false, same limits and
// overload behavior — served over the persistent raw-TCP stream
// transport (internal/mux), which carries every router sub-batch whose
// IDs fit u32. The transport owns framing, pipelining and connection
// state; this file supplies the batch semantics behind it and feeds the
// same serving counters, histograms and slow-query log as the HTTP
// endpoints. docs/WIRE.md ("Stream transport") is the normative
// protocol spec.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/mux"
)

// NewMuxServer builds the stream-transport front end for this server:
// handshakes carry the serving fingerprint (so enrollment-grade identity
// checks survive reconnects), batch frames run through the same gate,
// cache and worker pool as HTTP requests, frames over MaxBatchPairs get
// an in-band 413, and the reach_mux_* metrics are registered on the
// server's /metrics registry. The caller owns the listener and
// lifecycle: bind, pass the resolved address as Config.MuxAddr, then
// Serve and Shutdown the returned server.
func (s *Server) NewMuxServer(logf func(string, ...any)) *mux.Server {
	ms := mux.NewServer(mux.ServerConfig{
		Batch:         s.muxBatch,
		Fingerprint:   s.fingerprint,
		MaxBatchPairs: s.cfg.MaxBatchPairs,
		Logf:          logf,
	})
	s.met.registerMux(ms)
	return ms
}

// muxTracePool recycles per-batch stage accumulators: the struct is all
// atomics, so reuse is three stores, and the steady-state mux path stays
// allocation-free end to end.
var muxTracePool = sync.Pool{New: func() any { return new(queryTrace) }}

// muxBatch is the mux.BatchFunc behind the stream transport. Failures
// return *mux.Fail with the HTTP status the equivalent HTTP request
// would have gotten, so the router handles both alike.
func (s *Server) muxBatch(ctx context.Context, trace string, pairs [][2]uint32, out []bool) error {
	// Admission control first, exactly like the HTTP guard: a saturated
	// server answers in microseconds instead of queueing frames. 429s
	// count as rejected, not errors, on both transports.
	if s.gate != nil {
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
		default:
			s.met.rejected.Add(1)
			return &mux.Fail{Status: http.StatusTooManyRequests,
				Msg: fmt.Sprintf("server at max in-flight requests (%d); retry later", s.cfg.MaxInFlight)}
		}
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	start := time.Now()
	tr := muxTracePool.Get().(*queryTrace)
	tr.cacheNs.Store(0)
	tr.probeNs.Store(0)
	tr.cacheHits.Store(0)
	defer muxTracePool.Put(tr)

	s.met.batchRequests.Add(1)
	// Resolve in place: stream-transport IDs are uint32 by construction
	// (routers send batches with wider IDs as JSON over HTTP), unknown
	// IDs answer false.
	t0 := time.Now()
	for i := range pairs {
		du, _ := s.resolve(uint64(pairs[i][0]))
		dv, _ := s.resolve(uint64(pairs[i][1]))
		pairs[i][0], pairs[i][1] = du, dv
	}
	resolve := time.Since(t0)

	err := s.reachableBatchInto(ctx, pairs, out, tr)
	total := time.Since(start)
	s.met.reqMux.RecordDuration(total)
	status := http.StatusOK
	var ret error
	if err != nil {
		status = http.StatusServiceUnavailable
		ret = s.muxAbandoned(ctx, err)
	}
	if s.met.slow.Slow(total) {
		cacheNs := tr.cacheNs.Load()
		probeNs := tr.probeNs.Load()
		s.met.slow.Emit(SlowQueryRecord{
			Time:       time.Now().UTC().Format(time.RFC3339Nano),
			Trace:      trace,
			Endpoint:   "mux",
			Status:     status,
			DurationMS: float64(total) / 1e6,
			Pairs:      len(pairs),
			CacheHits:  tr.cacheHits.Load(),
			StagesMS: map[string]float64{
				"resolve": float64(resolve) / 1e6,
				"cache":   float64(cacheNs) / 1e6,
				"probe":   float64(probeNs) / 1e6,
			},
		})
	}
	return ret
}

// muxAbandoned is failTimeout for the stream transport: the batch's
// context ended, answer 503 so routers read it as transient pressure,
// with the same timed_out/errors accounting as HTTP.
func (s *Server) muxAbandoned(ctx context.Context, err error) error {
	s.countTimedOut(ctx, err)
	s.met.errors.Add(1)
	return &mux.Fail{Status: http.StatusServiceUnavailable, Msg: "request abandoned: " + err.Error()}
}
