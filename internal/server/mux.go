package server

// The mux query path: the same semantics as the HTTP query endpoints,
// served over the persistent raw-TCP stream transport (internal/mux),
// which carries every router sub-batch and single query whose IDs fit
// u32. A batch frame answers as /v1/batch does — results[i] answers
// pairs[i], unknown vertices answer false — and a single frame as
// /v1/reachable does: an unknown vertex is an in-band 400 with the
// endpoint's message, and the response carries the cached flag. The
// transport owns framing, pipelining and connection state; this file
// supplies the semantics behind it, through the same admission path,
// serving counters, histograms and slow-query log as the HTTP
// endpoints. docs/WIRE.md ("Stream transport") is the normative
// protocol spec.

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/mux"
)

// NewMuxServer builds the stream-transport front end for this server:
// handshakes carry the serving fingerprint (so enrollment-grade identity
// checks survive reconnects), batch and single frames run through the
// same gate, cache and worker pool as HTTP requests, frames over
// MaxBatchPairs get an in-band 413, and the reach_mux_* metrics are
// registered on the server's /metrics registry. The caller owns the
// listener and lifecycle: bind, pass the resolved address as
// Config.MuxAddr, then Serve and Shutdown the returned server.
func (s *Server) NewMuxServer(logf func(string, ...any)) *mux.Server {
	ms := mux.NewServer(mux.ServerConfig{
		Batch:         s.muxBatch,
		Single:        s.muxSingle,
		Fingerprint:   s.fingerprint,
		MaxBatchPairs: s.cfg.MaxBatchPairs,
		Logf:          logf,
	})
	s.met.registerMux(ms)
	return ms
}

// muxTracePool recycles per-batch traces: their stage accumulator is
// all atomics and travels to the worker pool with the batch's chunks,
// so reuse keeps the steady-state mux path allocation-free end to end.
var muxTracePool = sync.Pool{New: func() any { return new(reqTrace) }}

// muxBatch is the mux.BatchFunc behind the stream transport. Failures
// return *mux.Fail with the HTTP status the equivalent HTTP request
// would have gotten, so the router handles both alike.
func (s *Server) muxBatch(ctx context.Context, trace string, pairs [][2]uint32, out []bool) error {
	var ret error
	if f := s.admit(ctx, func(ctx context.Context) {
		tr := muxTracePool.Get().(*reqTrace)
		defer muxTracePool.Put(tr)
		*tr = reqTrace{id: trace, start: time.Now()}
		s.met.batchRequests.Add(1)
		// Resolve in place: stream-transport IDs are uint32 by
		// construction (routers send batches with wider IDs as JSON over
		// HTTP), unknown IDs answer false.
		t0 := time.Now()
		for i := range pairs {
			du, _ := s.resolve(uint64(pairs[i][0]))
			dv, _ := s.resolve(uint64(pairs[i][1]))
			pairs[i][0], pairs[i][1] = du, dv
		}
		tr.resolve = time.Since(t0)
		status := http.StatusOK
		if err := s.reachableBatchInto(ctx, pairs, out, &tr.qt); err != nil {
			status, ret = http.StatusServiceUnavailable, s.abandoned(ctx, err)
		}
		s.finishTrace(nil, tr, s.met.reqMux, "mux", len(pairs), status)
	}); f != nil {
		return f
	}
	return ret
}

// muxSingle is the mux.SingleFunc behind the stream transport: GET
// /v1/reachable without HTTP, recording what that endpoint records (the
// endpoint="reachable" request histogram and slow-query endpoint).
func (s *Server) muxSingle(ctx context.Context, trace string, u, v uint32) (ans, cached bool, err error) {
	if f := s.admit(ctx, func(ctx context.Context) {
		tr := reqTrace{id: trace, start: time.Now()}
		var refused *mux.Fail
		ans, cached, refused = s.single(ctx, &tr, uint64(u), uint64(v))
		status := http.StatusOK
		if refused != nil {
			status, err = refused.Status, refused
		}
		s.finishTrace(nil, &tr, s.met.reqReachable, "reachable", 1, status)
	}); f != nil {
		return false, false, f
	}
	return ans, cached, err
}
