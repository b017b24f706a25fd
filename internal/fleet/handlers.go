package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Handler returns the router's HTTP mux. It serves the same v1 surface
// as a single reachd — /v1/healthz, /v1/reachable, /v1/batch, /v1/stats,
// /metrics — so clients, load balancers and the reachbench load
// generator cannot tell a fleet from a single node (except that
// /v1/stats grows fleet and per-replica sections, and /metrics carries
// reach_router_* series instead of serving-stage ones). With
// Config.EnablePprof, net/http/pprof is mounted under /debug/pprof/.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/reachable", rt.handleReachable)
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.Handle("GET /metrics", rt.met.reg.Handler())
	if rt.cfg.EnablePprof {
		obs.RegisterPprof(mux)
	}
	return mux
}

// stageTimes is where one routed request spent its time: decoding the
// JSON body, routing (scatter to gather), and encoding the answer.
// Single queries only route.
type stageTimes struct {
	decode, route, encode time.Duration
}

// finishTrace closes out a routed request: sets the Server-Timing
// header (decode and encode at the JSON edge, when the request has a
// body; route = time inside the routing layer, scatter to gather),
// records the request histogram, and emits a slow-query record when the
// total crosses the configured threshold.
func (rt *Router) finishTrace(w http.ResponseWriter, traceID string, start time.Time, st stageTimes, hist *obs.Histogram, endpoint string, pairs, status int) {
	total := time.Since(start)
	stages := make([]obs.Stage, 0, 4)
	if st.decode > 0 {
		stages = append(stages, obs.Stage{Name: "decode", D: st.decode})
	}
	stages = append(stages, obs.Stage{Name: "route", D: st.route})
	if st.encode > 0 {
		stages = append(stages, obs.Stage{Name: "encode", D: st.encode})
	}
	w.Header().Set(obs.ServerTimingHeader, obs.FormatServerTiming(append(stages, obs.Stage{Name: "total", D: total})))
	hist.RecordDuration(total)
	if rt.met.slow.Slow(total) {
		stagesMS := make(map[string]float64, len(stages))
		for _, s := range stages {
			stagesMS[s.Name] = float64(s.D) / 1e6
		}
		rt.met.slow.Emit(server.SlowQueryRecord{
			Time:       time.Now().UTC().Format(time.RFC3339Nano),
			Trace:      traceID,
			Endpoint:   endpoint,
			Status:     status,
			DurationMS: float64(total) / 1e6,
			Pairs:      pairs,
			StagesMS:   stagesMS,
		})
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (rt *Router) failf(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, server.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeRouteError maps a routing failure onto the client-facing status:
// no fleet → 503, every replica overloaded → 429 with the largest
// Retry-After hint, a non-retryable upstream 4xx → passed through
// verbatim, anything else → 502.
func (rt *Router) writeRouteError(w http.ResponseWriter, err error) {
	var se *StatusError
	switch {
	case errors.Is(err, ErrNoReplicas):
		rt.failf(w, http.StatusServiceUnavailable,
			"no healthy replicas in fleet (%d/%d enrolled); retry later",
			len(rt.healthy(nil)), len(rt.replicas))
	case errors.As(err, &se):
		if se.Status == http.StatusTooManyRequests {
			ra := se.RetryAfter
			if ra <= 0 {
				ra = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			rt.failf(w, http.StatusTooManyRequests,
				"every healthy replica is at capacity; retry later")
			return
		}
		if se.Status >= 400 && se.Status < 500 {
			// The replica judged the request itself bad (e.g. an unknown
			// vertex ID); relay its verdict unchanged.
			writeJSON(w, se.Status, server.ErrorResponse{Error: se.Body})
			return
		}
		rt.failf(w, http.StatusBadGateway, "replica error after retries: %v", err)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		rt.failf(w, http.StatusServiceUnavailable, "request abandoned: %v", err)
	default:
		rt.failf(w, http.StatusBadGateway, "fleet request failed: %v", err)
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	id := rt.FleetIdentity()
	healthy := len(rt.healthy(nil))
	bi := obs.BuildInfo()
	hz := RouterHealthz{
		HealthzResponse: server.HealthzResponse{
			Status:        "ok",
			Method:        id.Method,
			Vertices:      id.Vertices,
			Fingerprint:   id.Fingerprint,
			Source:        "fleet",
			GoVersion:     bi.GoVersion,
			Revision:      bi.Revision,
			UptimeSeconds: rt.met.uptimeSeconds(),
		},
		ReplicasHealthy: healthy,
		ReplicasTotal:   len(rt.replicas),
	}
	if healthy == 0 {
		// A router with no fleet cannot serve; tell the layer above (a
		// load balancer, the CI readiness poll) with a 503, same as a
		// dead reachd would.
		hz.Status = "no healthy replicas"
		writeJSON(w, http.StatusServiceUnavailable, hz)
		return
	}
	writeJSON(w, http.StatusOK, hz)
}

// RouterHealthz is the router's /v1/healthz payload: a replica-shaped
// identity (so routers can be health-checked — or even enrolled —
// exactly like replicas) plus fleet occupancy.
type RouterHealthz struct {
	server.HealthzResponse
	ReplicasHealthy int `json:"replicas_healthy"`
	ReplicasTotal   int `json:"replicas_total"`
}

func (rt *Router) handleReachable(w http.ResponseWriter, r *http.Request) {
	traceID := obs.EnsureTrace(w, r)
	start := time.Now()
	q := r.URL.Query()
	u, errU := strconv.ParseUint(q.Get("u"), 10, 64)
	v, errV := strconv.ParseUint(q.Get("v"), 10, 64)
	if errU != nil || errV != nil {
		rt.finishTrace(w, traceID, start, stageTimes{}, rt.met.reqReachable, "reachable", 1, http.StatusBadRequest)
		rt.failf(w, http.StatusBadRequest, "u and v must be non-negative integer query parameters")
		return
	}
	t0 := time.Now()
	resp, err := rt.Reachable(obs.WithTrace(r.Context(), traceID), u, v)
	st := stageTimes{route: time.Since(t0)}
	if err != nil {
		rt.finishTrace(w, traceID, start, st, rt.met.reqReachable, "reachable", 1, routeErrorStatus(err))
		rt.writeRouteError(w, err)
		return
	}
	rt.finishTrace(w, traceID, start, st, rt.met.reqReachable, "reachable", 1, http.StatusOK)
	writeJSON(w, http.StatusOK, resp)
}

// routeErrorStatus mirrors writeRouteError's status mapping for the
// slow-query log and metrics without writing anything.
func routeErrorStatus(err error) int {
	var se *StatusError
	switch {
	case errors.Is(err, ErrNoReplicas):
		return http.StatusServiceUnavailable
	case errors.As(err, &se):
		if se.Status == http.StatusTooManyRequests || (se.Status >= 400 && se.Status < 500) {
			return se.Status
		}
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	traceID := obs.EnsureTrace(w, r)
	start := time.Now()
	var st stageTimes
	done := func(pairs, status int) {
		rt.finishTrace(w, traceID, start, st, rt.met.reqBatch, "batch", pairs, status)
	}
	// The edge codec is reachd's: same byte cap, same fast path, same
	// encoding/json fallback, so the router accepts and rejects exactly
	// the bodies a single node does.
	eb := server.GetEdgeBatch()
	defer eb.Release()
	pairs, err := eb.ReadRequest(w, r, rt.cfg.MaxBatchPairs)
	st.decode = rt.met.edgeDecode.RecordSince(start)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			done(0, http.StatusRequestEntityTooLarge)
			rt.failf(w, http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", tooLarge.Limit)
			return
		}
		done(0, http.StatusBadRequest)
		rt.failf(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(pairs) > rt.cfg.MaxBatchPairs {
		done(len(pairs), http.StatusRequestEntityTooLarge)
		rt.failf(w, http.StatusRequestEntityTooLarge,
			"batch of %d pairs exceeds limit %d", len(pairs), rt.cfg.MaxBatchPairs)
		return
	}
	t0 := time.Now()
	// Batch joins every sub-batch goroutine before it returns, so
	// nothing reads pairs once eb goes back to the pool.
	results, err := rt.Batch(obs.WithTrace(r.Context(), traceID), pairs)
	st.route = time.Since(t0)
	if err != nil {
		done(len(pairs), routeErrorStatus(err))
		rt.writeRouteError(w, err)
		return
	}
	t1 := time.Now()
	eb.EncodeResponse(results)
	st.encode = rt.met.edgeEncode.RecordSince(t1)
	done(len(pairs), http.StatusOK)
	eb.WriteResponse(w)
}

// ReplicaStats is one replica's row in the router's /v1/stats.
type ReplicaStats struct {
	Base        string `json:"base"`
	State       string `json:"state"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Method      string `json:"method,omitempty"`
	// Build identity the replica reported on its last successful probe,
	// so one router stats read spots a replica running stale code.
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	// Transport is how batches currently travel: "mux" when the router
	// negotiated the persistent stream transport from the replica's
	// healthz advertisement, "http" otherwise. (A mux replica still
	// falls back to HTTP per batch when no connection is up; Transport
	// reports the negotiation, which is deterministic, not the last
	// batch's route, which is not.)
	Transport string `json:"transport"`
	InFlight  int64  `json:"in_flight"`
	// Requests/Errors/Rejected count what THIS router sent the replica;
	// the replica's own lifetime counters are under Upstream.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected_429"`
	// Upstream is the replica's own /v1/stats, fetched live for healthy
	// replicas when the router's stats are read.
	Upstream *server.Stats `json:"upstream,omitempty"`
}

// FleetStats aggregates the router's routing counters and the summed
// upstream counters of the currently healthy replicas.
type FleetStats struct {
	Fingerprint     string  `json:"fingerprint"`
	Method          string  `json:"method"`
	ReplicasHealthy int     `json:"replicas_healthy"`
	ReplicasTotal   int     `json:"replicas_total"`
	Requests        int64   `json:"requests"`
	BatchRequests   int64   `json:"batch_requests"`
	SubBatches      int64   `json:"sub_batches"`
	Retries         int64   `json:"retries"`
	Upstream429     int64   `json:"upstream_429"`
	Failovers       int64   `json:"failovers"`
	NoReplicaErrors int64   `json:"no_replica_errors"`
	Probes          int64   `json:"probes"`
	SlowQueries     int64   `json:"slow_queries"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	// Summed over healthy replicas' live /v1/stats:
	UpstreamQueries int64 `json:"upstream_queries"`
	// UpstreamObserverHits sums the replicas' observer fast-path decides
	// across all observer kinds — how much of the fleet's query volume
	// never touched an index.
	UpstreamObserverHits int64 `json:"upstream_observer_hits"`
}

// cacheAggregate mirrors the hits/misses/hit_rate keys of a replica's
// cache section so tools built for reachd stats (reachbench -serve's
// per-run cache report) read a router identically.
type cacheAggregate struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// RouterStats is the router's /v1/stats payload. Graph and Cache mirror
// the single-node layout (filled from the fleet) so existing tooling
// works unchanged; Fleet and Replicas are the router-specific truth.
type RouterStats struct {
	Graph    server.GraphStats `json:"graph"`
	Cache    cacheAggregate    `json:"cache"`
	Fleet    FleetStats        `json:"fleet"`
	Replicas []ReplicaStats    `json:"replicas"`
}

// Stats snapshots the router and, for healthy replicas, their live
// upstream counters (each fetch bounded by ProbeTimeout).
func (rt *Router) Stats(ctx context.Context) RouterStats {
	id := rt.FleetIdentity()
	out := RouterStats{
		Graph: server.GraphStats{Vertices: id.Vertices},
		Fleet: FleetStats{
			Fingerprint:     id.Fingerprint,
			Method:          id.Method,
			ReplicasTotal:   len(rt.replicas),
			Requests:        rt.met.requests.Load(),
			BatchRequests:   rt.met.batchRequests.Load(),
			SubBatches:      rt.met.subBatches.Load(),
			Retries:         rt.met.retries.Load(),
			Upstream429:     rt.met.upstream429.Load(),
			Failovers:       rt.met.failovers.Load(),
			NoReplicaErrors: rt.met.noReplicas.Load(),
			Probes:          rt.met.probes.Load(),
			SlowQueries:     rt.met.slow.Emitted(),
			UptimeSeconds:   rt.met.uptimeSeconds(),
		},
		Replicas: make([]ReplicaStats, len(rt.replicas)),
	}
	var wg sync.WaitGroup
	for i, r := range rt.replicas {
		transport := "http"
		if r.client.MuxActive() {
			transport = "mux"
		}
		st := ReplicaStats{
			Base:      r.base,
			State:     stateName(r.state.Load()),
			Transport: transport,
			InFlight:  r.inflight.Load(),
			Requests:  r.requests.Load(),
			Errors:    r.errors.Load(),
			Rejected:  r.rejected.Load(),
		}
		if id := r.ident.Load(); id != nil {
			st.Fingerprint = id.Fingerprint
			st.Method = id.Method
			st.GoVersion = id.GoVersion
			st.Revision = id.Revision
		}
		out.Replicas[i] = st
		if st.State != "healthy" {
			continue
		}
		out.Fleet.ReplicasHealthy++
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
			defer cancel()
			up, err := r.client.Stats(sctx)
			if err != nil {
				return // stats are best-effort; the probe loop handles health
			}
			out.Replicas[i].Upstream = &up
		}(i, r)
	}
	wg.Wait()
	for i := range out.Replicas {
		if up := out.Replicas[i].Upstream; up != nil {
			out.Fleet.UpstreamQueries += up.Server.Queries
			if o := up.Index.Observers; o != nil {
				for _, hits := range o.Hits {
					out.Fleet.UpstreamObserverHits += hits
				}
			}
			out.Cache.Hits += up.Cache.Hits
			out.Cache.Misses += up.Cache.Misses
			if out.Graph.DAGVertices == 0 {
				out.Graph = up.Graph // full graph shape from any live replica
			}
		}
	}
	if t := out.Cache.Hits + out.Cache.Misses; t > 0 {
		out.Cache.HitRate = float64(out.Cache.Hits) / float64(t)
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats(r.Context()))
}
