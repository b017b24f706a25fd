// Package server is the reachd query-serving core: it wraps an immutable
// reach.Oracle with a lock-free positive/negative query cache and a
// worker pool for batch execution, and exposes both over a small
// HTTP/JSON API (/v1/reachable, /v1/batch, /v1/stats, /v1/healthz).
//
// The layering mirrors O'Reach's observation that cheap caching/filter
// frontends multiply the real-world throughput of a microsecond-query
// oracle, cheapest step first: the oracle's observers decide most pairs
// outright, the cache shortcuts repeats of the rest, and the pool turns
// one HTTP round trip into many index probes. The serving layer also
// degrades gracefully under overload: a max-in-flight gate rejects
// excess requests with 429 instead of queueing unboundedly, and
// per-request deadlines stop batch work that nobody is waiting for.
package server

import (
	"context"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	reach "repro"
	"repro/internal/obs"
)

// Config tunes the serving layer. The zero value picks sane defaults.
type Config struct {
	// Workers sizes the batch worker pool (default GOMAXPROCS).
	Workers int
	// CacheCapacity bounds total cached answers (default 1<<20); the
	// table rounds it down to a power of two, at least 64. Negative
	// disables the cache entirely.
	CacheCapacity int
	// BatchChunk is how many pairs one worker task handles (default 256).
	BatchChunk int
	// MaxBatchPairs rejects oversized /v1/batch requests (default 1<<20).
	MaxBatchPairs int
	// RequestTimeout is the per-request deadline applied to the query
	// endpoints; a batch whose deadline expires stops dispatching chunks
	// and answers 503. Zero disables deadlines — unless MaxInFlight is
	// set, in which case DefaultGateTimeout applies: without a deadline,
	// stalled clients would pin gate slots forever and turn the gate
	// into a permanent 429.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently-served query requests; excess
	// requests are rejected immediately with 429 and a Retry-After
	// header instead of queueing. Zero means unlimited. /v1/healthz and
	// /v1/stats bypass the gate so monitoring works under overload.
	MaxInFlight int
	// OrigIDs, when set, makes the HTTP API speak the caller's original
	// vertex IDs instead of dense post-parse ones: OrigIDs[dense] = raw,
	// exactly as reach.ReadGraph returns. reachd always sets this so the
	// HTTP API and reachcli agree on what "vertex 3" means for the same
	// edge-list file.
	OrigIDs []int64
	// SlowQueryThreshold turns on the slow-query log: query requests
	// whose total handler time reaches it emit one JSON line (trace ID,
	// pair count, cache hits, per-stage timings) to SlowQueryWriter.
	// Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryWriter receives slow-query JSON lines (default os.Stderr
	// when SlowQueryThreshold is set).
	SlowQueryWriter io.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// Handler mux. Off by default: profiling endpoints are an
	// operational tool, not part of the query API.
	EnablePprof bool
	// MuxAddr is the host:port the replica's mux listener (the raw-TCP
	// stream transport, internal/mux) is bound to; /v1/healthz advertises
	// it, and fleet routers enroll only replicas that advertise one,
	// because every router sub-batch whose IDs fit u32 travels there.
	// Empty means no mux listener: the server then answers direct HTTP
	// clients only. reachd binds the listener first and passes the
	// resolved address, so what healthz advertises is always dialable.
	MuxAddr string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchChunk <= 0 {
		c.BatchChunk = 256
	}
	if c.MaxBatchPairs <= 0 {
		c.MaxBatchPairs = 1 << 20
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = DefaultCacheCapacity
	}
	if c.SlowQueryThreshold > 0 && c.SlowQueryWriter == nil {
		c.SlowQueryWriter = os.Stderr
	}
	if c.MaxInFlight > 0 && c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultGateTimeout
	}
	return c
}

// DefaultGateTimeout is the request deadline imposed when MaxInFlight is
// set without a RequestTimeout. A gate without any deadline is a DoS
// hazard: clients that stall their request body (or stop reading their
// response) would hold slots forever, and the gate would answer 429 to
// everyone indefinitely. Generous enough that only genuinely stuck
// requests hit it.
const DefaultGateTimeout = 30 * time.Second

// Server answers reachability queries for one graph + oracle pair. It is
// safe for concurrent use; create with New and release the worker pool
// with Close when done.
type Server struct {
	g      *reach.Graph
	oracle *reach.Oracle
	cache  *cache // nil when disabled
	met    *metrics
	cfg    Config

	// fingerprint is the graph's structural hash in hex, precomputed
	// because Graph.Fingerprint walks the condensation map (O(V)) and
	// /v1/healthz is probed every second by fleet routers.
	fingerprint string

	// gate is the admission-control semaphore: each in-flight query
	// request holds one slot. Nil when MaxInFlight is 0.
	gate chan struct{}

	// denseOf translates original vertex IDs to dense ones; nil when the
	// API already speaks dense IDs.
	denseOf map[int64]uint32

	jobs      chan func()
	workersWG sync.WaitGroup
	closeOnce sync.Once
	// closeMu makes job submission mutually exclusive with closing the
	// jobs channel: senders hold the read side, Close the write side, so
	// a send can never hit a just-closed channel.
	closeMu sync.RWMutex
	closed  bool
}

// New wires a server around an already-built oracle and starts its worker
// pool.
func New(g *reach.Graph, oracle *reach.Oracle, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		g:           g,
		oracle:      oracle,
		met:         newMetrics(),
		cfg:         cfg,
		fingerprint: FingerprintString(g.Fingerprint()),
		jobs:        make(chan func(), 4*cfg.Workers),
	}
	s.met.slow = obs.NewSlowLog(cfg.SlowQueryWriter, cfg.SlowQueryThreshold)
	if cfg.CacheCapacity >= 0 {
		s.cache = newCache(cfg.CacheCapacity)
	}
	if cfg.MaxInFlight > 0 {
		s.gate = make(chan struct{}, cfg.MaxInFlight)
	}
	if len(cfg.OrigIDs) > 0 {
		s.denseOf = make(map[int64]uint32, len(cfg.OrigIDs))
		for dense, raw := range cfg.OrigIDs {
			s.denseOf[raw] = uint32(dense)
		}
	}
	s.met.registerServer(s)
	s.workersWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer s.workersWG.Done()
			for job := range s.jobs {
				job()
			}
		}()
	}
	return s
}

// Close stops the worker pool. In-flight batch requests finish; new ones
// fall back to inline execution.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		close(s.jobs)
		s.closeMu.Unlock()
	})
	s.workersWG.Wait()
}

// submit hands job to the pool, or reports false if the pool is saturated
// or already closed (caller runs it inline).
func (s *Server) submit(job func()) bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return false
	}
	select {
	case s.jobs <- job:
		return true
	default:
		return false
	}
}

// unknownVertex is the dense ID unknown API vertex IDs resolve to; it is
// out of range for every graph, so the oracle answers false.
const unknownVertex = ^uint32(0)

// resolve maps an API vertex ID (original when OrigIDs was configured,
// dense otherwise) to a dense vertex, reporting whether it names a vertex
// of the graph.
func (s *Server) resolve(raw uint64) (uint32, bool) {
	if s.denseOf == nil {
		if raw >= uint64(s.g.NumVertices()) {
			return unknownVertex, false
		}
		return uint32(raw), true
	}
	if raw > 1<<63-1 {
		return unknownVertex, false
	}
	dense, ok := s.denseOf[int64(raw)]
	if !ok {
		return unknownVertex, false
	}
	return dense, true
}

// queryTrace accumulates one request's per-stage totals for the
// Server-Timing response header and the slow-query log. Batch chunks
// run on multiple workers, so the fields are atomic; each chunk adds
// its locally-summed stage times once, not per pair.
type queryTrace struct {
	cacheNs   atomic.Int64
	probeNs   atomic.Int64
	cacheHits atomic.Int64
}

// chunkStats is one chunk's (or one single query's) local accumulator,
// folded into the request's queryTrace and the server counters when the
// chunk finishes. Batching the fold keeps the per-pair loop free of
// shared counters: one atomic add per counter per chunk, none per pair.
type chunkStats struct {
	cacheNs, probeNs       int64
	cacheHits, cacheMisses int64
	queries, positive      int64
}

func (t *queryTrace) add(cs *chunkStats) {
	if t == nil {
		return
	}
	t.cacheNs.Add(cs.cacheNs)
	t.probeNs.Add(cs.probeNs)
	t.cacheHits.Add(cs.cacheHits)
}

// Reachable answers one query, reporting whether the cache answered it.
// Pairs the oracle decides without its index never touch the cache:
// unknown-vertex pairs (from /v1/batch, where they answer false instead
// of failing the batch), two vertices of one SCC, and observer verdicts.
func (s *Server) Reachable(u, v uint32) (reachable, cached bool) {
	var cs chunkStats
	reachable, cached = s.reachable(u, v, &cs)
	s.met.recordChunk(&cs)
	return reachable, cached
}

// stageSampleEvery is the per-pair stage-timing sample interval: pair
// 0, 16, 32, ... of each chunk pays the clock reads and histogram
// records, the rest skip them. Two time.Now calls per pair were ~20%
// of the batch hot path on the profile; sampling keeps the
// cache_lookup/index_probe histograms and the Server-Timing stage
// attribution (scaled back up, so they are estimates) at a sixteenth
// of the cost. Single queries start a fresh accumulator, land on phase
// zero, and therefore are always timed exactly. A power of two keeps
// the phase check a mask.
const stageSampleEvery = 16

// reachable is the per-pair hot path in cost order: the oracle's decide
// step, then for undecided pairs the cache (keyed by DAG-vertex pair),
// then the index probe, whose answer fills the cache. The cache and
// probe steps are sampled into the stage histograms and summed into cs.
func (s *Server) reachable(u, v uint32, cs *chunkStats) (ans, cached bool) {
	sample := cs.queries&(stageSampleEvery-1) == 0
	cs.queries++
	cu, cv, ans, decided := s.oracle.Decide(u, v)
	if !decided && s.cache != nil {
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		ans, cached = s.cache.get(cu, cv)
		if sample {
			cs.cacheNs += int64(s.met.cacheDur.RecordSince(t0)) * stageSampleEvery
		}
		if cached {
			cs.cacheHits++
		}
	}
	if !decided && !cached {
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		ans = s.oracle.Probe(cu, cv)
		if sample {
			cs.probeNs += int64(s.met.probeDur.RecordSince(t0)) * stageSampleEvery
		}
		if s.cache != nil {
			cs.cacheMisses++
			s.cache.put(cu, cv, ans)
		}
	}
	if ans {
		cs.positive++
	}
	return ans, cached
}

// ReachableBatch answers pairs through the cache, splitting the work
// across the worker pool in BatchChunk-sized tasks. When ctx is
// cancelled (the request deadline expired or the client went away) it
// stops dispatching chunks, lets already-running ones finish, and
// returns ctx's error — the partial results are discarded because the
// caller can no longer use them.
func (s *Server) ReachableBatch(ctx context.Context, pairs [][2]uint32) ([]bool, error) {
	return s.reachableBatch(ctx, pairs, nil)
}

// reachableBatch is ReachableBatch with a per-request trace accumulator
// (nil when the caller doesn't want stage attribution).
func (s *Server) reachableBatch(ctx context.Context, pairs [][2]uint32, tr *queryTrace) ([]bool, error) {
	out := make([]bool, len(pairs))
	if err := s.reachableBatchInto(ctx, pairs, out, tr); err != nil {
		return nil, err
	}
	return out, nil
}

// reachableBatchInto is reachableBatch filling a caller-provided result
// slice (len(out) must equal len(pairs)) — the stream transport reuses
// pooled buffers across requests, so the allocation is the caller's
// choice, not this function's.
func (s *Server) reachableBatchInto(ctx context.Context, pairs [][2]uint32, out []bool, tr *queryTrace) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	chunk := s.cfg.BatchChunk
	if len(pairs) <= chunk {
		s.runChunk(pairs, out, tr)
		return nil
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(pairs); lo += chunk {
		if ctx.Err() != nil {
			break // stop dispatching; queued chunks below also re-check
		}
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		wg.Add(1)
		job := func() {
			defer wg.Done()
			if ctx.Err() != nil {
				return // cancelled while queued
			}
			s.runChunk(pairs[lo:hi], out[lo:hi], tr)
		}
		if !s.submit(job) {
			job() // pool saturated or shut down: run inline rather than block
		}
	}
	wg.Wait()
	return ctx.Err()
}

// runChunk answers one contiguous chunk, timing the whole dispatch into
// the chunk_dispatch stage histogram (queue wait is visible as the gap
// between a batch's request histogram and the sum of its chunks).
func (s *Server) runChunk(pairs [][2]uint32, out []bool, tr *queryTrace) {
	t0 := time.Now()
	var cs chunkStats
	for i, p := range pairs {
		out[i], _ = s.reachable(p[0], p[1], &cs)
	}
	s.met.chunkDur.RecordSince(t0)
	s.met.recordChunk(&cs)
	tr.add(&cs)
}

// GraphStats is the graph section of /v1/stats.
type GraphStats struct {
	Vertices    int `json:"vertices"`
	DAGVertices int `json:"dag_vertices"`
	DAGEdges    int `json:"dag_edges"`
}

// IndexStats is the index section of /v1/stats.
type IndexStats struct {
	Method   string `json:"method"`
	SizeInts int64  `json:"size_ints"`
	// Source is "snapshot" when the index was restored from a snapshot
	// file, "built" when it was constructed from the graph at startup.
	Source string `json:"source"`
	// Observers describes the fast path in front of the index; nil when
	// the oracle was built or left without one.
	Observers *ObserverStats `json:"observers,omitempty"`
}

// ObserverStats is the observer fast-path segment of IndexStats: what
// the fast path costs (precompute time, resident and on-disk size) and
// what it delivers (per-observer decided-query counts).
type ObserverStats struct {
	Supportive int `json:"supportive_vertices"`
	// Source is "snapshot" when the stack was decoded from the snapshot's
	// observer section, "built" when it was constructed from the DAG.
	Source       string           `json:"source"`
	PrecomputeMS float64          `json:"precompute_ms"`
	SizeInts     int64            `json:"size_ints"`
	SectionBytes int64            `json:"section_bytes"`
	Hits         map[string]int64 `json:"hits"`
}

// Stats is the full /v1/stats payload.
type Stats struct {
	Graph  GraphStats  `json:"graph"`
	Index  IndexStats  `json:"index"`
	Cache  CacheStats  `json:"cache"`
	Server ServerStats `json:"server"`
}

func indexSource(o *reach.Oracle) string {
	if o.Loaded() {
		return "snapshot"
	}
	return "built"
}

// observerStats snapshots the oracle's observer stack for /v1/stats, or
// returns nil when observers are disabled.
func observerStats(o *reach.Oracle) *ObserverStats {
	st := o.Observers()
	if st == nil {
		return nil
	}
	source := "built"
	if st.FromSnapshot() {
		source = "snapshot"
	}
	return &ObserverStats{
		Supportive:   st.SupportiveCount(),
		Source:       source,
		PrecomputeMS: float64(st.PrecomputeTime().Microseconds()) / 1e3,
		SizeInts:     st.SizeInts(),
		SectionBytes: st.SectionBytes(),
		Hits:         st.HitsMap(),
	}
}

// Stats snapshots every layer's counters.
func (s *Server) Stats() Stats {
	var cs CacheStats
	if s.cache != nil {
		cs = s.met.cacheStats(s.cache)
	}
	return Stats{
		Graph: GraphStats{
			Vertices:    s.g.NumVertices(),
			DAGVertices: s.g.DAGVertices(),
			DAGEdges:    s.g.DAGEdges(),
		},
		Index: IndexStats{
			Method:    s.oracle.Method(),
			SizeInts:  s.oracle.IndexSizeInts(),
			Source:    indexSource(s.oracle),
			Observers: observerStats(s.oracle),
		},
		Cache:  cs,
		Server: s.met.snapshot(s.cfg.Workers, len(s.gate), s.cfg.MaxInFlight),
	}
}
