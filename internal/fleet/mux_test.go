package fleet

import (
	"context"
	"errors"
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
