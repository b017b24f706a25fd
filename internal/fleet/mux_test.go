package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mux"
	"repro/internal/server"
)

// TestNewEnrollsMuxFleet: right after New returns against live mux
// replicas, every one is enrolled (the synchronous first probe round
// includes the mux handshake), and batches ride the stream transport
// with correct answers and no JSON sub-batch.
func TestNewEnrollsMuxFleet(t *testing.T) {
	g, oracle := realOracle(t)
	var bases []string
	for range 3 {
		bases = append(bases, startReplica(t, g, oracle, server.Config{}))
	}
	cfg := silentCfg(bases...)
	cfg.MinSubBatch = 16
	rt, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := len(rt.healthy(nil)); got != 3 {
		t.Fatalf("%d of 3 live mux replicas enrolled when New returned", got)
	}

	rng := rand.New(rand.NewSource(11))
	n := g.NumVertices()
	for round := 0; round < 8; round++ {
		pairs := make([][2]uint64, 200)
		for i := range pairs {
			pairs[i] = [2]uint64{uint64(rng.Intn(n)), uint64(rng.Intn(n))}
		}
		res, err := rt.Batch(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if res[i] != oracle.Reachable(uint32(p[0]), uint32(p[1])) {
				t.Fatalf("round %d: batch result %d disagrees with oracle", round, i)
			}
		}
	}
	if tx, rx := rt.met.muxTraffic.FramesTx.Load(), rt.met.muxTraffic.FramesRx.Load(); tx == 0 || tx != rx {
		t.Fatalf("mux frame counters tx=%d rx=%d, want equal and positive", tx, rx)
	}
	if tx, rx := rt.met.muxTraffic.BytesTx.Load(), rt.met.muxTraffic.BytesRx.Load(); tx == 0 || rx == 0 {
		t.Fatalf("mux byte counters tx=%d rx=%d, want both positive", tx, rx)
	}
	if n := rt.met.wire.framesJSON.Load(); n != 0 {
		t.Fatalf("%d JSON sub-batches for u32 IDs, want 0", n)
	}
}

// TestDeadMuxListenerNotEnrolled: a replica whose advertised mux
// listener is dead stays down even though its HTTP healthz answers
// (batches would have nowhere to go), and batches go to the healthy
// replica.
func TestDeadMuxListenerNotEnrolled(t *testing.T) {
	g, oracle := realOracle(t)
	// A listener bound and immediately closed: a dialable-looking
	// advertisement with nothing behind it.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	dead := server.New(g, oracle, server.Config{MuxAddr: deadAddr})
	deadTS := httptest.NewServer(dead.Handler())
	t.Cleanup(func() { deadTS.Close(); dead.Close() })
	live := startReplica(t, g, oracle, server.Config{})

	rt := newTestRouter(t, silentCfg(deadTS.URL, live))
	if st := replicaStatsByBase(t, rt); st[deadTS.URL].State != "down" || st[live].State != "healthy" {
		t.Fatalf("states dead=%q live=%q after New, want down and healthy",
			st[deadTS.URL].State, st[live].State)
	}
	resp, err := http.Get(deadTS.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dead-mux replica's healthz answered %d, want 200", resp.StatusCode)
	}

	pairs := [][2]uint64{{1, 2}, {3, 4}, {5, 9}}
	for range 10 {
		res, err := rt.Batch(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if res[i] != oracle.Reachable(uint32(p[0]), uint32(p[1])) {
				t.Fatalf("batch result %d disagrees with oracle", i)
			}
		}
	}
	if n := dead.Stats().Server.BatchRequests; n != 0 {
		t.Fatalf("dead-mux replica served %d batches, want 0", n)
	}
}

// TestUseMuxDialsOnlyWithoutLiveConn: UseMux, which every probe calls,
// dials only when the pool holds no live connection, so probing a
// replica that serves batches never dials a spare slot, whose failure
// would mark the replica down.
func TestUseMuxDialsOnlyWithoutLiveConn(t *testing.T) {
	f := newFakeReplica("f1", xorAnswer)
	base := f.start(t)
	c := NewClient(base, time.Second)
	c.muxCounters = &mux.Counters{}
	t.Cleanup(c.CloseIdleConnections)
	for range 5 {
		if err := c.UseMux(context.Background(), f.muxAddr, f.fingerprint); err != nil {
			t.Fatal(err)
		}
	}
	f.muxLn.mu.Lock()
	n := len(f.muxLn.conns)
	f.muxLn.mu.Unlock()
	if n != 1 || c.MuxOpenConns() != 1 {
		t.Fatalf("5 UseMux calls dialed %d connections (%d open), want the first call's 1", n, c.MuxOpenConns())
	}
}

// TestStreamDeathRetriedOnce: closing the mux connection under an
// in-flight batch costs one retry on another pool connection, not the
// replica: the batch answers, the replica stays enrolled, and the
// router neither fails over nor retries at its level.
func TestStreamDeathRetriedOnce(t *testing.T) {
	f := newFakeReplica("f1", xorAnswer)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var held atomic.Bool
	f.hold = func() {
		if held.CompareAndSwap(false, true) {
			close(inFlight)
			<-release
		}
	}
	base := f.start(t)
	rt := newTestRouter(t, silentCfg(base))

	pairs := [][2]uint64{{1, 2}, {3, 4}, {6, 9}}
	type result struct {
		res []bool
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := rt.Batch(context.Background(), pairs)
		done <- result{res, err}
	}()
	<-inFlight
	// The connection carrying the batch has read a request frame on top
	// of its handshake, so it is the busiest one.
	f.muxLn.busiest().Close()
	close(release)
	got := <-done
	if got.err != nil {
		t.Fatalf("batch failed after its stream died: %v", got.err)
	}
	for i, p := range pairs {
		if got.res[i] != xorAnswer(p[0], p[1]) {
			t.Fatalf("result %d wrong after the retry", i)
		}
	}
	if n := f.batchCalls.Load(); n != 2 {
		t.Fatalf("replica saw %d batch calls, want 2 (the lost one and one retry)", n)
	}
	if fo, re := rt.met.failovers.Load(), rt.met.retries.Load(); fo != 0 || re != 0 {
		t.Fatalf("failovers=%d retries=%d, want 0 and 0", fo, re)
	}
	if st := replicaStatsByBase(t, rt)[base].State; st != "healthy" {
		t.Fatalf("replica %s after one lost stream, want healthy", st)
	}
}

// TestOverLimitSubBatch413: a sub-batch over a replica's -max-batch
// (smaller than the router's) comes back as an in-band 413 that the
// router relays to its client; the replica is not ejected, since the
// refusal is about the batch, not the replica.
func TestOverLimitSubBatch413(t *testing.T) {
	g, oracle := realOracle(t)
	base := startReplica(t, g, oracle, server.Config{MaxBatchPairs: 4})
	rt := newTestRouter(t, silentCfg(base))
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	pairs := make([][2]uint64, 10)
	_, err := rt.Batch(context.Background(), pairs)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit batch returned %v, want *StatusError 413", err)
	}
	resp, _ := postBatch(t, ts.URL, pairs)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit batch through the router's HTTP edge: status %d, want 413", resp.StatusCode)
	}
	if fo := rt.met.failovers.Load(); fo != 0 {
		t.Fatalf("%d failovers after a 413, want 0", fo)
	}
	if st := replicaStatsByBase(t, rt)[base].State; st != "healthy" {
		t.Fatalf("replica %s after a 413, want healthy", st)
	}
	res, err := rt.Batch(context.Background(), pairs[:4])
	if err != nil {
		t.Fatalf("batch within the limit after the 413: %v", err)
	}
	for i, p := range pairs[:4] {
		if res[i] != oracle.Reachable(uint32(p[0]), uint32(p[1])) {
			t.Fatalf("result %d disagrees with oracle", i)
		}
	}
}

// TestResolveMuxAddr: wildcard advertised hosts (a reachd bound to
// ":7071" advertises what it heard) must be re-hosted onto the replica's
// known-good HTTP hostname; concrete hosts pass through; garbage yields
// "" (no mux rather than a bad dial target).
func TestResolveMuxAddr(t *testing.T) {
	cases := []struct {
		base, adv, want string
	}{
		{"http://10.1.2.3:8080", "10.1.2.3:7071", "10.1.2.3:7071"},
		{"http://10.1.2.3:8080", "0.0.0.0:7071", "10.1.2.3:7071"},
		{"http://10.1.2.3:8080", ":7071", "10.1.2.3:7071"},
		{"http://replica-7.prod:8080", "[::]:7071", "replica-7.prod:7071"},
		{"http://10.1.2.3:8080", "not an addr", ""},
		{"::not a url::", "0.0.0.0:7071", ""},
	}
	for _, c := range cases {
		if got := resolveMuxAddr(c.base, c.adv); got != c.want {
			t.Errorf("resolveMuxAddr(%q, %q) = %q, want %q", c.base, c.adv, got, c.want)
		}
	}
}

// TestStreamDeathUnderSingleRetriedOnce is TestStreamDeathRetriedOnce
// for a single query: closing the mux connection under an in-flight
// single costs one retry on another pool connection, not the replica.
func TestStreamDeathUnderSingleRetriedOnce(t *testing.T) {
	f := newFakeReplica("f1", xorAnswer)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var held atomic.Bool
	f.hold = func() {
		if held.CompareAndSwap(false, true) {
			close(inFlight)
			<-release
		}
	}
	base := f.start(t)
	rt := newTestRouter(t, silentCfg(base))

	type result struct {
		resp server.ReachableResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := rt.Reachable(context.Background(), 6, 9)
		done <- result{resp, err}
	}()
	<-inFlight
	// The connection carrying the single has read a request frame on top
	// of its handshake, so it is the busiest one.
	f.muxLn.busiest().Close()
	close(release)
	got := <-done
	if got.err != nil {
		t.Fatalf("single failed after its stream died: %v", got.err)
	}
	if got.resp.Reachable != xorAnswer(6, 9) {
		t.Fatal("single answered wrong after the retry")
	}
	if n := f.singleCalls.Load(); n != 2 {
		t.Fatalf("replica saw %d single frames, want 2 (the lost one and one retry)", n)
	}
	if fo, re := rt.met.failovers.Load(), rt.met.retries.Load(); fo != 0 || re != 0 {
		t.Fatalf("failovers=%d retries=%d, want 0 and 0", fo, re)
	}
	if st := replicaStatsByBase(t, rt)[base].State; st != "healthy" {
		t.Fatalf("replica %s after one lost stream, want healthy", st)
	}
}

// TestSingle429OverMuxFailsOver: a replica shedding single frames costs
// a failover, as an HTTP 429 does (TestRouterHonors429); no single
// reaches either replica's HTTP endpoint, and with every replica
// shedding the client's 429 carries Retry-After 1, because an error
// frame has no hint to relay.
func TestSingle429OverMuxFailsOver(t *testing.T) {
	a := newFakeReplica("f1", xorAnswer)
	a.retryAfter = 9
	b := newFakeReplica("f1", xorAnswer)
	rt := newTestRouter(t, silentCfg(a.start(t), b.start(t)))
	a.mode.Store(mode429)
	for i := uint64(0); i < 40; i++ {
		got, err := rt.Reachable(context.Background(), i, i+1)
		if err != nil || got.Reachable != xorAnswer(i, i+1) {
			t.Fatalf("query %d past a shedding replica = %+v, %v", i, got, err)
		}
	}
	if rt.met.upstream429.Load() == 0 || a.singleCalls.Load() == 0 {
		t.Fatalf("shedding replica saw %d singles, router absorbed %d 429s; want both > 0",
			a.singleCalls.Load(), rt.met.upstream429.Load())
	}
	b.mode.Store(mode429)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/reachable?u=1&v=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("all-shedding fleet: status %d, Retry-After %q; want 429 and 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := a.httpSingles.Load() + b.httpSingles.Load(); n != 0 {
		t.Fatalf("%d u32 singles went over HTTP, want 0", n)
	}
}

// TestRouterSingleSemantics drives GET /v1/reachable through a router
// in front of one real replica, in dense and original-ID mode. A u32
// single now travels as a single frame, and the client sees what the
// replica's own HTTP endpoint answers: an unknown vertex is a 400 whose
// body is byte for byte the replica's, a repeated pair the observers
// leave undecided reads cached:true, and an observer-decided pair reads
// cached:false however often it is asked.
func TestRouterSingleSemantics(t *testing.T) {
	g, oracle := realOracle(t)
	n := g.NumVertices()
	for _, mode := range []string{"dense", "original"} {
		t.Run(mode, func(t *testing.T) {
			cfg := server.Config{}
			api := func(dense int) uint64 { return uint64(dense) }
			unknown, unknownMsg := uint64(n+10), fmt.Sprintf("vertex %d not in graph (valid IDs are 0..%d)", n+10, n-1)
			if mode == "original" {
				cfg.OrigIDs = make([]int64, n)
				for i := range cfg.OrigIDs {
					cfg.OrigIDs[i] = int64(1000 + 2*i)
				}
				api = func(dense int) uint64 { return uint64(1000 + 2*dense) }
				unknown, unknownMsg = 1001, "vertex 1001 is not an original vertex ID of the served graph"
			}
			base := startReplica(t, g, oracle, cfg)
			rt := newTestRouter(t, silentCfg(base))
			ts := httptest.NewServer(rt.Handler())
			defer ts.Close()
			get := func(url string) (int, string) {
				t.Helper()
				resp, err := http.Get(url)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, string(body)
			}

			query := fmt.Sprintf("/v1/reachable?u=%d&v=%d", unknown, api(0))
			status, body := get(ts.URL + query)
			_, direct := get(base + query)
			if want := `{"error":"` + unknownMsg + `"}` + "\n"; status != http.StatusBadRequest || body != want || body != direct {
				t.Fatalf("unknown vertex through the router: %d %q; want 400 %q, as the replica answers %q",
					status, body, want, direct)
			}

			var undecided, decided [2]int
			haveU, haveD := false, false
			for u := 0; u < n && !(haveU && haveD); u++ {
				for v := 0; v < n; v++ {
					_, _, _, dec := oracle.Decide(uint32(u), uint32(v))
					if !dec && !haveU {
						undecided, haveU = [2]int{u, v}, true
					}
					if dec && u != v && !haveD {
						decided, haveD = [2]int{u, v}, true
					}
				}
			}
			if !haveU || !haveD {
				t.Fatal("graph has no undecided or no decided pair to query")
			}
			for _, c := range []struct {
				pair       [2]int
				wantCached []bool
			}{
				{undecided, []bool{false, true, true}},
				{decided, []bool{false, false, false}},
			} {
				u, v := api(c.pair[0]), api(c.pair[1])
				for round, wantCached := range c.wantCached {
					status, body := get(fmt.Sprintf("%s/v1/reachable?u=%d&v=%d", ts.URL, u, v))
					want, _ := json.Marshal(server.ReachableResponse{U: u, V: v,
						Reachable: oracle.Reachable(uint32(c.pair[0]), uint32(c.pair[1])), Cached: wantCached})
					if status != http.StatusOK || body != string(want)+"\n" {
						t.Fatalf("pair %v round %d: %d %q, want 200 %s", c.pair, round, status, body, want)
					}
				}
			}
			if n := rt.met.muxTraffic.FramesTx.Load(); n != 7 {
				t.Fatalf("router sent %d mux frames for 7 singles, want 7", n)
			}
		})
	}
}

// TestClientWideIDSingleUsesHTTP is TestClientWideIDsFallBackToJSON for
// a single query: an ID beyond uint32 cannot ride a single frame, so
// that query takes GET /v1/reachable, while the next narrow one goes
// over mux again.
func TestClientWideIDSingleUsesHTTP(t *testing.T) {
	g, oracle := realOracle(t)
	wide := int64(math.MaxUint32) + 7
	orig := make([]int64, g.NumVertices())
	for i := range orig {
		orig[i] = int64(i)
	}
	orig[1] = wide
	c := muxClient(t, startReplica(t, g, oracle, server.Config{OrigIDs: orig}))

	rr, err := c.Reachable(context.Background(), uint64(wide), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rr.U != uint64(wide) || rr.V != 2 || rr.Reachable != oracle.Reachable(1, 2) {
		t.Fatalf("wide-ID single answered %+v", rr)
	}
	if c.muxCounters.FramesTx.Load() != 0 {
		t.Fatalf("wide-ID single sent %d mux frames, want 0", c.muxCounters.FramesTx.Load())
	}

	rr, err = c.Reachable(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Reachable != oracle.Reachable(0, 2) || c.muxCounters.FramesTx.Load() != 1 {
		t.Fatalf("narrow single after the wide one: %+v with %d mux frames, want 1",
			rr, c.muxCounters.FramesTx.Load())
	}
	if n := c.counters.framesJSON.Load(); n != 0 {
		t.Fatalf("%d JSON batches for two singles, want 0", n)
	}
}
