package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mux"
	"repro/internal/obs"
	"repro/internal/server"
)

// Fake replica behavior modes.
const (
	modeOK int32 = iota
	mode429
	mode500
)

// fakeReplica is a scripted reachd stand-in: it answers batches and
// singles over its own mux listener (advertised in healthz), and
// singles too wide for a frame over HTTP, from a pure function, and can
// be told to shed (429), fail (500), delay, or die and come back on the
// same addresses.
type fakeReplica struct {
	fingerprint string
	answer      func(u, v uint64) bool
	mode        atomic.Int32
	batchMode   atomic.Int32 // overrides mode for batches when set
	delay       time.Duration
	retryAfter  int
	// hold, when set, runs at the start of every batch and mux single; a
	// test blocks in it to keep a request in flight.
	hold func()

	queries     atomic.Int64 // pairs answered (single + batch)
	batchCalls  atomic.Int64
	singleCalls atomic.Int64 // single frames received over mux
	httpSingles atomic.Int64 // GET /v1/reachable requests received
	lastTrace   atomic.Value // trace ID of the last query received

	addr, muxAddr string
	srv           *http.Server
	muxSrv        *mux.Server
	muxLn         *trackingListener
}

func newFakeReplica(fingerprint string, answer func(u, v uint64) bool) *fakeReplica {
	return &fakeReplica{fingerprint: fingerprint, answer: answer, retryAfter: 1}
}

// listenAt binds addr, or a fresh loopback port when addr is empty.
func listenAt(t *testing.T, addr string) net.Listener {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("fake replica listen %s: %v", addr, err)
	}
	return ln
}

// start begins serving HTTP and mux; on the first call it binds fresh
// loopback ports, later calls rebind the same addresses so
// re-enrollment after a "crash" can be tested.
func (f *fakeReplica) start(t *testing.T) string {
	t.Helper()
	ln := listenAt(t, f.addr)
	f.muxLn = &trackingListener{Listener: listenAt(t, f.muxAddr)}
	f.addr, f.muxAddr = ln.Addr().String(), f.muxLn.Addr().String()
	f.srv = &http.Server{Handler: f.handler()}
	f.muxSrv = mux.NewServer(mux.ServerConfig{Batch: f.muxBatch, Single: f.muxSingle, Fingerprint: f.fingerprint})
	go f.srv.Serve(ln)
	go f.muxSrv.Serve(f.muxLn)
	t.Cleanup(f.stop)
	return "http://" + f.addr
}

// stop kills the fake abruptly: both listeners and every open
// connection close, as SIGKILL on a real replica would.
func (f *fakeReplica) stop() {
	f.srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // force-close rather than drain
	f.muxSrv.Shutdown(ctx)
}

// shed reports whether the current mode hijacked the response.
func (f *fakeReplica) shed(w http.ResponseWriter, mode int32) bool {
	switch mode {
	case mode429:
		w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter))
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "shedding"})
		return true
	case mode500:
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "injected failure"})
		return true
	}
	return false
}

func (f *fakeReplica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.HealthzResponse{
			Status: "ok", Method: "FAKE", Vertices: 1000,
			Fingerprint: f.fingerprint, Source: "snapshot", Mux: f.muxAddr,
		})
	})
	mux.HandleFunc("GET /v1/reachable", func(w http.ResponseWriter, r *http.Request) {
		f.httpSingles.Add(1)
		f.lastTrace.Store(r.Header.Get(obs.TraceHeader))
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		if f.shed(w, f.mode.Load()) {
			return
		}
		u, _ := strconv.ParseUint(r.URL.Query().Get("u"), 10, 64)
		v, _ := strconv.ParseUint(r.URL.Query().Get("v"), 10, 64)
		f.queries.Add(1)
		json.NewEncoder(w).Encode(server.ReachableResponse{U: u, V: v, Reachable: f.answer(u, v)})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		var st server.Stats
		st.Graph.Vertices = 1000
		st.Server.Queries = f.queries.Load()
		json.NewEncoder(w).Encode(st)
	})
	return mux
}

// muxBatch is the fake's mux.BatchFunc: the batch half of its scripted
// behavior, with sheds and failures as in-band error frames.
func (f *fakeReplica) muxBatch(_ context.Context, trace string, pairs [][2]uint32, out []bool) error {
	f.lastTrace.Store(trace)
	f.batchCalls.Add(1)
	if f.hold != nil {
		f.hold()
	}
	if f.delay > 0 {
		// Shuffled completion: each sub-batch takes a random slice of
		// the configured delay, so gather order != dispatch order.
		time.Sleep(time.Duration(rand.Int63n(int64(f.delay))))
	}
	mode := f.batchMode.Load()
	if mode == modeOK {
		mode = f.mode.Load()
	}
	if fail := modeFail(mode); fail != nil {
		return fail
	}
	for i, p := range pairs {
		out[i] = f.answer(uint64(p[0]), uint64(p[1]))
	}
	f.queries.Add(int64(len(pairs)))
	return nil
}

// muxSingle is the fake's mux.SingleFunc: the single-query half of its
// scripted behavior, as its GET /v1/reachable handler scripts it, with
// sheds and failures as in-band error frames.
func (f *fakeReplica) muxSingle(_ context.Context, trace string, u, v uint32) (bool, bool, error) {
	f.lastTrace.Store(trace)
	f.singleCalls.Add(1)
	if f.hold != nil {
		f.hold()
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if fail := modeFail(f.mode.Load()); fail != nil {
		return false, false, fail
	}
	f.queries.Add(1)
	return f.answer(uint64(u), uint64(v)), false, nil
}

// modeFail is the in-band error frame a scripted mode answers with, or
// nil for modeOK.
func modeFail(mode int32) error {
	switch mode {
	case mode429:
		return &mux.Fail{Status: http.StatusTooManyRequests, Msg: "shedding"}
	case mode500:
		return &mux.Fail{Status: http.StatusInternalServerError, Msg: "injected failure"}
	}
	return nil
}

// trackingListener records the connections it accepts and how many
// bytes each has read, so a test can cut the one carrying a batch.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// busiest returns the accepted connection that has read the most bytes.
func (l *trackingListener) busiest() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	var best *countingConn
	for _, c := range l.conns {
		if best == nil || c.read.Load() > best.read.Load() {
			best = c
		}
	}
	return best
}

// silentCfg keeps test logs quiet and probe cycles fast.
func silentCfg(replicas ...string) Config {
	return Config{
		Replicas:      replicas,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		MaxAttempts:   3,
		Logf:          func(string, ...any) {},
	}
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// waitState polls until the replica at base reaches the wanted state.
func waitState(t *testing.T, rt *Router, base string, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, r := range rt.replicas {
			if r.base == base && r.state.Load() == want {
				return
			}
		}
		if time.Now().After(deadline) {
			for _, r := range rt.replicas {
				t.Logf("replica %s state=%s", r.base, stateName(r.state.Load()))
			}
			t.Fatalf("replica %s never reached state %s", base, stateName(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func xorAnswer(u, v uint64) bool { return (u^v)%3 == 0 }

func TestRouterSingleAndBatch(t *testing.T) {
	a := newFakeReplica("f1", xorAnswer)
	b := newFakeReplica("f1", xorAnswer)
	c := newFakeReplica("f1", xorAnswer)
	rt := newTestRouter(t, silentCfg(a.start(t), b.start(t), c.start(t)))

	for i := uint64(0); i < 50; i++ {
		got, err := rt.Reachable(context.Background(), i, i*7)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.Reachable != xorAnswer(i, i*7) || got.U != i {
			t.Fatalf("query %d: wrong answer %+v", i, got)
		}
	}
	pairs := make([][2]uint64, 500)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(i), uint64(3 * i)}
	}
	res, err := rt.Batch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if res[i] != xorAnswer(p[0], p[1]) {
			t.Fatalf("batch pair %d wrong", i)
		}
	}
	// All three replicas should have seen work (the batch scatters, and
	// 50 singles under p2c cannot all land on one node).
	if a.queries.Load() == 0 || b.queries.Load() == 0 || c.queries.Load() == 0 {
		t.Errorf("load not spread: a=%d b=%d c=%d",
			a.queries.Load(), b.queries.Load(), c.queries.Load())
	}
}

// TestRouterOrderPreservingMerge forces scatter with a tiny MinSubBatch
// and random per-sub-batch delays, so sub-batches complete in shuffled
// order; every result must still answer its own pair.
func TestRouterOrderPreservingMerge(t *testing.T) {
	answer := func(u, v uint64) bool { return u%2 == 0 && v%5 != 0 }
	var fakes []*fakeReplica
	var bases []string
	for i := 0; i < 3; i++ {
		f := newFakeReplica("f1", answer)
		f.delay = 30 * time.Millisecond
		fakes = append(fakes, f)
		bases = append(bases, f.start(t))
	}
	cfg := silentCfg(bases...)
	cfg.MinSubBatch = 1
	rt := newTestRouter(t, cfg)

	pairs := make([][2]uint64, 300)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(i), uint64(i * i % 97)}
	}
	res, err := rt.Batch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if res[i] != answer(p[0], p[1]) {
			t.Fatalf("result %d misaligned after shuffled gather", i)
		}
	}
	if rt.met.subBatches.Load() < 3 {
		t.Fatalf("batch did not scatter: %d sub-batches", rt.met.subBatches.Load())
	}
	// p2c picks each sub-batch independently, so one replica may by
	// chance get nothing — but a 3-way scatter must use at least two.
	spread := 0
	for _, f := range fakes {
		if f.batchCalls.Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("3 sub-batches all landed on one replica")
	}
}

func TestRouterAllReplicasDown(t *testing.T) {
	a := newFakeReplica("f1", xorAnswer)
	b := newFakeReplica("f1", xorAnswer)
	baseA, baseB := a.start(t), b.start(t)
	rt := newTestRouter(t, silentCfg(baseA, baseB))
	a.stop()
	b.stop()
	waitState(t, rt, baseA, stateDown)
	waitState(t, rt, baseB, stateDown)

	if _, err := rt.Reachable(context.Background(), 1, 2); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("query with dead fleet: %v, want ErrNoReplicas", err)
	}
	if _, err := rt.Batch(context.Background(), [][2]uint64{{1, 2}}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("batch with dead fleet: %v, want ErrNoReplicas", err)
	}

	// Through HTTP: a clear 503 naming the fleet occupancy.
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/reachable?u=1&v=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var e server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if want := "no healthy replicas in fleet (0/2 enrolled)"; !strings.Contains(e.Error, want) {
		t.Fatalf("503 body %q does not explain the outage (want %q)", e.Error, want)
	}
	// Healthz must also tell the layer above.
	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead fleet: status %d, want 503", hz.StatusCode)
	}
}

// TestRouterHonors429 proves overload failover: a shedding replica's
// 429s are absorbed by retrying another replica, and only when every
// replica sheds does the client see a 429 — carrying the upstream
// Retry-After hint.
func TestRouterHonors429(t *testing.T) {
	a := newFakeReplica("f1", xorAnswer)
	a.retryAfter = 9
	b := newFakeReplica("f1", xorAnswer)
	rt := newTestRouter(t, silentCfg(a.start(t), b.start(t)))
	a.mode.Store(mode429)

	for i := uint64(0); i < 40; i++ {
		got, err := rt.Reachable(context.Background(), i, i+1)
		if err != nil {
			t.Fatalf("query %d should have failed over past the 429: %v", i, err)
		}
		if got.Reachable != xorAnswer(i, i+1) {
			t.Fatalf("query %d wrong answer", i)
		}
	}
	if rt.met.upstream429.Load() == 0 {
		t.Fatal("40 queries against a half-shedding fleet absorbed no 429s")
	}
	for _, r := range rt.replicas {
		if r.base == "http://"+a.addr && r.rejected.Load() == 0 {
			t.Fatal("shedding replica's rejected counter never moved")
		}
	}

	// Both shedding with different hints: the client's 429 must carry
	// the most conservative (largest) Retry-After the fleet gave, no
	// matter which replica was tried last. Hints travel only as HTTP
	// headers (an in-band error frame has none), so the query holds an
	// ID too wide for a frame and takes GET /v1/reachable.
	b.mode.Store(mode429)
	b.retryAfter = 1
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	for i := 0; i < 10; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/reachable?u=%d&v=2", ts.URL, uint64(math.MaxUint32)+1))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("all-shedding fleet: status %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "9" {
			t.Fatalf("Retry-After %q, want the largest upstream hint 9", ra)
		}
	}
}

// TestRouterPartialSubBatchFailure: a replica that fails batches with
// 500 must cost at most a bounded retry — the sub-batch lands on another
// replica and the merged result is still correct and complete.
func TestRouterPartialSubBatchFailure(t *testing.T) {
	a := newFakeReplica("f1", xorAnswer)
	bad := newFakeReplica("f1", xorAnswer)
	c := newFakeReplica("f1", xorAnswer)
	cfg := silentCfg(a.start(t), bad.start(t), c.start(t))
	cfg.MinSubBatch = 1
	rt := newTestRouter(t, cfg)
	bad.batchMode.Store(mode500)

	pairs := make([][2]uint64, 90)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(i), uint64(i + 13)}
	}
	for round := 0; round < 20; round++ {
		res, err := rt.Batch(context.Background(), pairs)
		if err != nil {
			t.Fatalf("round %d: batch failed despite two healthy replicas: %v", round, err)
		}
		for i, p := range pairs {
			if res[i] != xorAnswer(p[0], p[1]) {
				t.Fatalf("round %d: result %d wrong after sub-batch retry", round, i)
			}
		}
	}
	if bad.batchCalls.Load() == 0 {
		t.Skip("failing replica was never picked (vanishingly unlikely)")
	}
	if rt.met.retries.Load() == 0 {
		t.Fatal("sub-batches failed on a replica but the retry counter never moved")
	}
}

// TestRouterBoundedRetryThenError: when every replica fails batches, the
// router must give up after MaxAttempts distinct replicas, not loop.
func TestRouterBoundedRetryThenError(t *testing.T) {
	var fakes []*fakeReplica
	var bases []string
	for i := 0; i < 3; i++ {
		f := newFakeReplica("f1", xorAnswer)
		fakes = append(fakes, f)
		bases = append(bases, f.start(t))
	}
	cfg := silentCfg(bases...)
	cfg.MaxAttempts = 3
	rt := newTestRouter(t, cfg)
	for _, f := range fakes {
		f.batchMode.Store(mode500)
	}

	before := int64(0)
	for _, f := range fakes {
		before += f.batchCalls.Load()
	}
	_, err := rt.Batch(context.Background(), [][2]uint64{{1, 2}, {3, 4}})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
		t.Fatalf("all-failing batch returned %v, want upstream 500 StatusError", err)
	}
	attempts := int64(0)
	for _, f := range fakes {
		attempts += f.batchCalls.Load()
	}
	if attempts-before != 3 {
		t.Fatalf("failed batch cost %d upstream attempts, want exactly MaxAttempts=3", attempts-before)
	}

	// Through HTTP this is a 502, not a hang or a 200 with garbage.
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, _ := postBatch(t, ts.URL, [][2]uint64{{1, 2}})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-failing batch over HTTP: status %d, want 502", resp.StatusCode)
	}
}

func postBatch(t *testing.T, base string, pairs [][2]uint64) (*http.Response, server.BatchResponse) {
	t.Helper()
	body, _ := json.Marshal(server.BatchRequest{Pairs: pairs})
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br server.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return resp, br
}

// TestRouterRefusesMismatchedFingerprint: a replica serving a different
// graph must never be enrolled, and queries must never reach it.
func TestRouterRefusesMismatchedFingerprint(t *testing.T) {
	a := newFakeReplica("fleet-fp", xorAnswer)
	b := newFakeReplica("fleet-fp", xorAnswer)
	wrong := newFakeReplica("OTHER-fp", func(u, v uint64) bool { return true }) // would corrupt answers

	baseA, baseB := a.start(t), b.start(t)
	// The mismatched replica starts dead so A or B deterministically
	// establishes the fleet identity first.
	wrongAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}()
	wrong.addr = wrongAddr
	rt := newTestRouter(t, silentCfg(baseA, baseB, "http://"+wrongAddr))
	waitState(t, rt, baseA, stateHealthy)
	waitState(t, rt, baseB, stateHealthy)

	baseWrong := wrong.start(t)
	waitState(t, rt, baseWrong, stateMismatched)

	for i := uint64(0); i < 60; i++ {
		got, err := rt.Reachable(context.Background(), i, i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Reachable != xorAnswer(i, i) {
			t.Fatalf("query %d answered by the wrong-graph replica", i)
		}
	}
	if wrong.queries.Load() != 0 {
		t.Fatalf("mismatched replica served %d queries; it must be excluded", wrong.queries.Load())
	}
	st := rt.Stats(context.Background())
	found := false
	for _, r := range st.Replicas {
		if r.Base == baseWrong {
			found = true
			if r.State != "mismatched" {
				t.Fatalf("stats report mismatched replica as %q", r.State)
			}
		}
	}
	if !found {
		t.Fatal("mismatched replica missing from stats")
	}
	if st.Fleet.ReplicasHealthy != 2 || st.Fleet.ReplicasTotal != 3 {
		t.Fatalf("fleet occupancy %d/%d, want 2/3", st.Fleet.ReplicasHealthy, st.Fleet.ReplicasTotal)
	}
}

// TestRouterFailoverAndReprobe: killing a replica mid-traffic must not
// fail a single query, and restarting it on the same address must
// re-enroll it via the backoff prober.
func TestRouterFailoverAndReprobe(t *testing.T) {
	a := newFakeReplica("f1", xorAnswer)
	b := newFakeReplica("f1", xorAnswer)
	baseA, baseB := a.start(t), b.start(t)
	cfg := silentCfg(baseA, baseB)
	cfg.MaxProbeBackoff = 100 * time.Millisecond
	rt := newTestRouter(t, cfg)
	waitState(t, rt, baseA, stateHealthy)
	waitState(t, rt, baseB, stateHealthy)

	b.stop() // SIGKILL-like: listener and conns die instantly
	for i := uint64(0); i < 50; i++ {
		got, err := rt.Reachable(context.Background(), i, i+3)
		if err != nil {
			t.Fatalf("query %d failed during failover: %v", i, err)
		}
		if got.Reachable != xorAnswer(i, i+3) {
			t.Fatalf("query %d wrong during failover", i)
		}
	}
	waitState(t, rt, baseB, stateDown)

	if restarted := b.start(t); restarted != baseB {
		t.Fatalf("fake restarted on %s, want %s", restarted, baseB)
	}
	waitState(t, rt, baseB, stateHealthy)
	if rt.met.failovers.Load() == 0 {
		t.Fatal("failover counter never moved")
	}
}

// TestPickPowerOfTwoChoices: with exactly two candidates both are always
// sampled, so the pick must deterministically be the less-loaded one.
func TestPickPowerOfTwoChoices(t *testing.T) {
	a := newFakeReplica("f1", xorAnswer)
	b := newFakeReplica("f1", xorAnswer)
	rt := newTestRouter(t, silentCfg(a.start(t), b.start(t)))
	ra, rb := rt.replicas[0], rt.replicas[1]
	ra.inflight.Store(100)
	for i := 0; i < 50; i++ {
		if got := rt.pick(nil); got != rb {
			t.Fatalf("pick chose the loaded replica (inflight 100 vs 0)")
		}
	}
	ra.inflight.Store(0)
	rb.inflight.Store(100)
	for i := 0; i < 50; i++ {
		if got := rt.pick(nil); got != ra {
			t.Fatalf("pick chose the loaded replica after load flipped")
		}
	}
}

// TestPickUniformAndAllocFree: with loads tied the first sampled
// candidate wins, so picks spread uniformly over the healthy replicas
// outside skip, and a pick allocates nothing.
func TestPickUniformAndAllocFree(t *testing.T) {
	var bases []string
	for range 4 {
		bases = append(bases, newFakeReplica("f1", xorAnswer).start(t))
	}
	rt := newTestRouter(t, silentCfg(bases...))
	for _, b := range bases {
		waitState(t, rt, b, stateHealthy)
	}
	skip := map[*replica]bool{rt.replicas[3]: true}
	counts := make(map[*replica]int)
	for range 3000 {
		counts[rt.pick(skip)]++
	}
	if n := counts[rt.replicas[3]]; n != 0 {
		t.Fatalf("skipped replica picked %d times", n)
	}
	for i, r := range rt.replicas[:3] {
		if n := counts[r]; n < 800 || n > 1200 {
			t.Fatalf("replica %d picked %d of 3000 times, want about 1000", i, n)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.pick(skip) }); allocs != 0 {
		t.Fatalf("pick allocates %.1f times per call, want 0", allocs)
	}
}

// TestRouterAgainstRealServers is the integration seam: three real
// server.Server replicas (same graph, shared immutable oracle), a real
// router, and answers checked against the oracle itself.
func TestRouterAgainstRealServers(t *testing.T) {
	raw := gen.CitationDAG(500, 3, 0.5, 11)
	edges := make([][2]uint32, 0, raw.NumEdges())
	raw.Edges(func(u, v graph.Vertex) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	g, err := reach.NewGraph(raw.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bases []string
	for i := 0; i < 3; i++ {
		bases = append(bases, startReplica(t, g, oracle, server.Config{}))
	}
	cfg := silentCfg(bases...)
	cfg.MinSubBatch = 16
	rt := newTestRouter(t, cfg)

	id := rt.FleetIdentity()
	if id.Fingerprint != server.FingerprintString(g.Fingerprint()) {
		t.Fatalf("fleet fingerprint %q != graph's %q", id.Fingerprint, server.FingerprintString(g.Fingerprint()))
	}
	if id.Method != "DL" || id.Vertices != g.NumVertices() {
		t.Fatalf("fleet identity %+v", id)
	}

	rng := rand.New(rand.NewSource(9))
	n := uint64(g.NumVertices())
	for i := 0; i < 100; i++ {
		u, v := uint64(rng.Intn(int(n))), uint64(rng.Intn(int(n)))
		got, err := rt.Reachable(context.Background(), u, v)
		if err != nil {
			t.Fatal(err)
		}
		if got.Reachable != oracle.Reachable(uint32(u), uint32(v)) {
			t.Fatalf("router disagrees with oracle on (%d,%d)", u, v)
		}
	}
	pairs := make([][2]uint64, 400)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(rng.Intn(int(n))), uint64(rng.Intn(int(n)))}
	}
	res, err := rt.Batch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if res[i] != oracle.Reachable(uint32(p[0]), uint32(p[1])) {
			t.Fatalf("batch result %d disagrees with oracle", i)
		}
	}

	// The aggregated stats must add up across the fleet.
	st := rt.Stats(context.Background())
	if st.Fleet.ReplicasHealthy != 3 {
		t.Fatalf("fleet reports %d healthy, want 3", st.Fleet.ReplicasHealthy)
	}
	if st.Fleet.UpstreamQueries < int64(len(pairs)) {
		t.Fatalf("aggregated upstream queries %d < %d pairs served", st.Fleet.UpstreamQueries, len(pairs))
	}
	if st.Graph.Vertices != g.NumVertices() || st.Graph.DAGEdges != g.DAGEdges() {
		t.Fatalf("router graph section %+v does not mirror the replicas'", st.Graph)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Fatal("aggregated cache counters empty after 500 queries")
	}

	// An unknown-vertex 400 passes through with the replica's verdict.
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/reachable?u=%d&v=0", ts.URL, n+10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown vertex through router: status %d, want 400", resp.StatusCode)
	}
	var e server.ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
		t.Fatalf("router 400 lost the replica's error body")
	}
}
