package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/mux"
	"repro/internal/obs"
)

// reqTrace is the per-request observability context: trace ID, start
// time, and the stage accumulator the query path fills in.
type reqTrace struct {
	id    string
	start time.Time
	qt    queryTrace
	// decode and resolve are single-goroutine stages recorded directly.
	decode, resolve time.Duration
}

// startTrace stamps the response with the request's trace ID (minting
// one when the client sent none) and starts the request clock.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) *reqTrace {
	return &reqTrace{id: obs.EnsureTrace(w, r), start: time.Now()}
}

// finishTrace closes out a query request: sets the Server-Timing
// breakdown header (before the body is written; w is nil on the stream
// transport, which has no headers), records the request histogram, and
// emits a slow-query record when the total crosses the configured
// threshold. pairs/status describe the request's outcome.
func (s *Server) finishTrace(w http.ResponseWriter, tr *reqTrace, hist *obs.Histogram, endpoint string, pairs int, status int) {
	total := time.Since(tr.start)
	cacheNs := tr.qt.cacheNs.Load()
	probeNs := tr.qt.probeNs.Load()
	if w != nil {
		stages := make([]obs.Stage, 0, 5)
		if tr.decode > 0 {
			stages = append(stages, obs.Stage{Name: "decode", D: tr.decode})
		}
		if tr.resolve > 0 {
			stages = append(stages, obs.Stage{Name: "resolve", D: tr.resolve})
		}
		stages = append(stages,
			obs.Stage{Name: "cache", D: time.Duration(cacheNs)},
			obs.Stage{Name: "probe", D: time.Duration(probeNs)},
			obs.Stage{Name: "total", D: total},
		)
		w.Header().Set(obs.ServerTimingHeader, obs.FormatServerTiming(stages))
	}
	hist.RecordDuration(total)
	if s.met.slow.Slow(total) {
		rec := SlowQueryRecord{
			Time:       time.Now().UTC().Format(time.RFC3339Nano),
			Trace:      tr.id,
			Endpoint:   endpoint,
			Status:     status,
			DurationMS: float64(total) / 1e6,
			Pairs:      pairs,
			CacheHits:  tr.qt.cacheHits.Load(),
			StagesMS: map[string]float64{
				"decode":  float64(tr.decode) / 1e6,
				"resolve": float64(tr.resolve) / 1e6,
				"cache":   float64(cacheNs) / 1e6,
				"probe":   float64(probeNs) / 1e6,
			},
		}
		s.met.slow.Emit(rec)
	}
}

// SlowQueryRecord is one line of the slow-query log: everything needed
// to chase an outlier after the fact — when, which trace, how slow,
// how big, and where inside the server the time went.
type SlowQueryRecord struct {
	Time       string             `json:"time"`
	Trace      string             `json:"trace"`
	Endpoint   string             `json:"endpoint"`
	Status     int                `json:"status"`
	DurationMS float64            `json:"duration_ms"`
	Pairs      int                `json:"pairs"`
	CacheHits  int64              `json:"cache_hits"`
	StagesMS   map[string]float64 `json:"stages_ms"`
}

// Handler returns the HTTP mux serving the v1 API:
//
//	GET  /v1/healthz                liveness probe + serving identity + build info
//	GET  /v1/reachable?u=U&v=V      one query
//	POST /v1/batch                  {"pairs": [[u,v], ...]}
//	GET  /v1/stats                  graph + index + cache + server counters
//	GET  /metrics                   Prometheus text-format exposition
//
// With Config.EnablePprof, net/http/pprof is mounted under
// /debug/pprof/ as well.
//
// Vertex IDs are dense [0, vertices) IDs by default; with Config.OrigIDs
// set (as reachd does) they are the caller's original edge-list IDs.
//
// The query endpoints sit behind the overload guard: with MaxInFlight
// set, excess concurrent requests get an immediate 429 with Retry-After;
// with RequestTimeout set, requests that outlive their deadline get 503.
// /v1/healthz, /v1/stats and /metrics bypass the guard so monitoring
// keeps working while the server sheds query load.
//
// Every query response echoes the request's X-Reach-Trace ID (minting
// one when absent) and carries an X-Reach-Server-Timing header with the
// per-stage latency breakdown.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/reachable", s.guard(s.handleReachable))
	mux.HandleFunc("POST /v1/batch", s.guard(s.handleBatch))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	if s.cfg.EnablePprof {
		obs.RegisterPprof(mux)
	}
	return mux
}

// writeGrace is how long past its request deadline a response write may
// keep a connection (and its gate slot) busy before being cut. It keeps
// the total per-request hold bounded at RequestTimeout+writeGrace while
// leaving room to flush error responses and drain large batch payloads
// to slow readers.
const writeGrace = time.Second

// admit runs serve under the admission control every query request
// takes, on either transport: a max-in-flight gate slot first (so a
// saturated server answers 429 in microseconds instead of queueing),
// then the RequestTimeout deadline on serve's context. A full gate
// skips serve, counts the request as rejected (not as an error), and
// returns the 429 to answer.
func (s *Server) admit(ctx context.Context, serve func(context.Context)) *mux.Fail {
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
	serve(ctx)
	return nil
}

// guard is the overload-protection middleware: admit, plus the socket
// deadlines and Retry-After header only HTTP has.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f := s.admit(r.Context(), func(ctx context.Context) {
			if s.cfg.RequestTimeout > 0 {
				// One shared deadline bounds body reads and compute: a
				// client that trickles its body must not hold its gate
				// slot (and a handler goroutine) past the deadline while
				// dec.Decode waits on the socket. The write deadline gets
				// a grace period past the request deadline — it exists to
				// bound a client that stops reading its response
				// (conn.Write blocking forever on a full TCP send
				// buffer), not to cut the 503/error body a just-expired
				// request still owes. Set{Read,Write}Deadline can fail on
				// exotic ResponseWriters; the context still bounds
				// compute then. Neither deadline can leak onto later
				// requests of a keep-alive connection: conn.serve resets
				// the read deadline in readRequest and unconditionally
				// clears the write deadline after each request (net/http
				// server.go, Go 1.24);
				// TestWriteDeadlineClearedBetweenRequests pins that.
				deadline, _ := ctx.Deadline()
				rc := http.NewResponseController(w)
				_ = rc.SetReadDeadline(deadline)
				_ = rc.SetWriteDeadline(deadline.Add(writeGrace))
				r = r.WithContext(ctx)
			}
			h(w, r)
		})
		if f != nil {
			// Retry-After is a hint, not a promise: in-flight requests
			// complete in well under a second unless the server is
			// badly oversubscribed.
			w.Header().Set("Retry-After", "1")
			s.writeFail(w, f)
		}
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.errors.Add(1)
	s.writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeFail answers a refusal on HTTP with its status and JSON body;
// the stream transport sends the same *mux.Fail as an error frame.
func (s *Server) writeFail(w http.ResponseWriter, f *mux.Fail) {
	s.writeJSON(w, f.Status, ErrorResponse{Error: f.Msg})
}

// failTimeout reports a request abandoned because its context ended.
func (s *Server) failTimeout(w http.ResponseWriter, r *http.Request, err error) {
	s.writeFail(w, s.abandoned(r.Context(), err))
}

// abandoned is the 503 for a request whose context ended, so clients
// and load balancers read it as transient server pressure, counted as
// an error and, at its deadline, as timed out.
func (s *Server) abandoned(ctx context.Context, err error) *mux.Fail {
	s.countTimedOut(ctx, err)
	s.met.errors.Add(1)
	return &mux.Fail{Status: http.StatusServiceUnavailable, Msg: "request abandoned: " + err.Error()}
}

// countTimedOut bumps timed_out for a request abandoned with err when
// its deadline expired: err is DeadlineExceeded, or ctx's own deadline
// has passed. The second test matters because the deadline can surface
// as Canceled: net/http's background read of a bodyless request times
// out at the guard's socket read deadline and cancels the connection
// context, which may land before the request's context notices its own
// timer. A cancelled context whose deadline is still ahead means the
// client went away, which happens with or without RequestTimeout and is
// not counted.
func (s *Server) countTimedOut(ctx context.Context, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.met.timedOut.Add(1)
		return
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		s.met.timedOut.Add(1)
	}
}

// badVertex is the 400, counted as an error, for an ID that names no
// vertex. The valid ID space depends on the ID mode: dense mode accepts
// [0, N); original-ID mode accepts exactly the edge-list file's IDs,
// which need not be dense, so quoting the vertex count would mislead.
func (s *Server) badVertex(bad uint64) *mux.Fail {
	s.met.errors.Add(1)
	if s.denseOf != nil {
		return &mux.Fail{Status: http.StatusBadRequest,
			Msg: fmt.Sprintf("vertex %d is not an original vertex ID of the served graph", bad)}
	}
	return &mux.Fail{Status: http.StatusBadRequest,
		Msg: fmt.Sprintf("vertex %d not in graph (valid IDs are 0..%d)", bad, s.g.NumVertices()-1)}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	bi := obs.BuildInfo()
	s.writeJSON(w, http.StatusOK, HealthzResponse{
		Status:        "ok",
		Method:        s.oracle.Method(),
		Vertices:      s.g.NumVertices(),
		Fingerprint:   s.fingerprint,
		Source:        indexSource(s.oracle),
		GoVersion:     bi.GoVersion,
		Revision:      bi.Revision,
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		Mux:           s.cfg.MuxAddr,
	})
}

func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) {
	tr := s.startTrace(w, r)
	// done closes out the trace (Server-Timing header, request
	// histogram, slow-query log) and must run before any body write.
	done := func(status int) { s.finishTrace(w, tr, s.met.reqReachable, "reachable", 1, status) }
	q := r.URL.Query()
	u, errU := strconv.ParseUint(q.Get("u"), 10, 64)
	v, errV := strconv.ParseUint(q.Get("v"), 10, 64)
	if errU != nil || errV != nil {
		done(http.StatusBadRequest)
		s.fail(w, http.StatusBadRequest, "u and v must be non-negative integer query parameters")
		return
	}
	ans, cached, f := s.single(r.Context(), tr, u, v)
	if f != nil {
		done(f.Status)
		s.writeFail(w, f)
		return
	}
	done(http.StatusOK)
	s.writeJSON(w, http.StatusOK, ReachableResponse{
		U: u, V: v, Reachable: ans, Cached: cached,
	})
}

// single answers one /v1/reachable query for either transport: resolve
// both IDs (an unknown one is a 400, not false), shed an expired
// deadline, then the per-pair path. A refusal is already counted.
func (s *Server) single(ctx context.Context, tr *reqTrace, u, v uint64) (ans, cached bool, f *mux.Fail) {
	t0 := time.Now()
	du, okU := s.resolve(u)
	dv, okV := s.resolve(v)
	tr.resolve = time.Since(t0)
	if !okU || !okV {
		bad := u
		if okU {
			bad = v
		}
		return false, false, s.badVertex(bad)
	}
	if err := ctx.Err(); err != nil {
		return false, false, s.abandoned(ctx, err)
	}
	var cs chunkStats
	ans, cached = s.reachable(du, dv, &cs)
	s.met.recordChunk(&cs)
	tr.qt.add(&cs)
	return ans, cached, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.wireFramesJSON.Add(1)
	// reach_wire_bytes_total: rx is body bytes actually read, tx is
	// response-body bytes written.
	origW := w
	cw := &countingResponseWriter{ResponseWriter: w}
	w = cw
	tr := s.startTrace(w, r)
	done := func(pairs, status int) { s.finishTrace(w, tr, s.met.reqBatch, "batch", pairs, status) }
	eb := GetEdgeBatch()
	defer func() {
		s.met.wireRxJSON.Add(eb.BodyBytes())
		s.met.wireTxJSON.Add(cw.n)
		eb.Release()
	}()
	// The byte cap bounds memory before decoding, so MaxBatchPairs
	// bounds the body, not just the decoded pair count. ReadRequest gets
	// the unwrapped writer so the cap's too-large handling still reaches
	// the real connection.
	pairs, err := eb.ReadRequest(origW, r, s.cfg.MaxBatchPairs)
	tr.decode = time.Since(tr.start)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			done(0, http.StatusRequestEntityTooLarge)
			s.fail(w, http.StatusRequestEntityTooLarge,
				"batch body exceeds %d bytes", tooLarge.Limit)
			return
		}
		// A read cut by the request deadline (guard sets a matching
		// socket read deadline) is overload shedding, not a bad request.
		// The socket deadline can fire a hair before the context's, so
		// classify the i/o timeout itself too.
		if errors.Is(err, os.ErrDeadlineExceeded) {
			done(0, http.StatusServiceUnavailable)
			s.failTimeout(w, r, context.DeadlineExceeded)
			return
		}
		if ctxErr := r.Context().Err(); ctxErr != nil {
			done(0, http.StatusServiceUnavailable)
			s.failTimeout(w, r, ctxErr)
			return
		}
		done(0, http.StatusBadRequest)
		s.fail(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(pairs) > s.cfg.MaxBatchPairs {
		done(len(pairs), http.StatusRequestEntityTooLarge)
		s.fail(w, http.StatusRequestEntityTooLarge,
			"batch of %d pairs exceeds limit %d", len(pairs), s.cfg.MaxBatchPairs)
		return
	}
	s.met.batchRequests.Add(1)
	// Shed before resolving: a deadline that expired during body decode
	// must not pay O(pairs) ID translation just to answer 503.
	if err := r.Context().Err(); err != nil {
		done(len(pairs), http.StatusServiceUnavailable)
		s.failTimeout(w, r, err)
		return
	}
	t0 := time.Now()
	dense := make([][2]uint32, len(pairs))
	for i, p := range pairs {
		du, _ := s.resolve(p[0]) // unknown IDs become unknownVertex → false
		dv, _ := s.resolve(p[1])
		dense[i] = [2]uint32{du, dv}
	}
	tr.resolve = time.Since(t0)
	results, err := s.reachableBatch(r.Context(), dense, &tr.qt)
	if err != nil {
		done(len(pairs), http.StatusServiceUnavailable)
		s.failTimeout(w, r, err)
		return
	}
	eb.EncodeResponse(results)
	done(len(pairs), http.StatusOK)
	eb.WriteResponse(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// countingResponseWriter tallies response-body bytes for the
// reach_wire_bytes_total{direction="tx"} accounting.
type countingResponseWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
