package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// fixture builds a citation-style DAG, its DL oracle, and a running test
// server.
func fixture(t testing.TB, cfg Config) (*reach.Graph, *Server, *httptest.Server) {
	t.Helper()
	raw := gen.CitationDAG(600, 3, 0.5, 42)
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
	s := New(g, oracle, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return g, s, ts
}

func getJSON(t testing.TB, url string, into any) *http.Response {
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
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("bad JSON %q: %v", body, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	g, _, ts := fixture(t, Config{})
	var got HealthzResponse
	resp := getJSON(t, ts.URL+"/v1/healthz", &got)
	if resp.StatusCode != http.StatusOK || got.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", resp.StatusCode, got)
	}
	if got.Method != "DL" || got.Vertices != g.NumVertices() {
		t.Fatalf("healthz reports %+v", got)
	}
	if got.Fingerprint != FingerprintString(g.Fingerprint()) {
		t.Fatalf("healthz fingerprint %q, want %q", got.Fingerprint, FingerprintString(g.Fingerprint()))
	}
	if got.Source != "built" {
		t.Fatalf("healthz source %q, want built", got.Source)
	}
}

// TestHealthzIdentity pins the fleet-enrollment contract: every replica
// serving one snapshot reports the same fingerprint, a replica serving a
// different graph reports a different one, and a snapshot-loaded server
// reports the fingerprint of the graph it was saved from.
func TestHealthzIdentity(t *testing.T) {
	g, _, ts := fixture(t, Config{})
	var a HealthzResponse
	getJSON(t, ts.URL+"/v1/healthz", &a)
	if len(a.Fingerprint) != 16 {
		t.Fatalf("fingerprint %q is not fixed-width hex", a.Fingerprint)
	}

	// Same graph, snapshot-loaded: identical fingerprint, source=snapshot.
	oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := oracle.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := reach.LoadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(loaded.Graph(), loaded, Config{})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var b HealthzResponse
	getJSON(t, ts2.URL+"/v1/healthz", &b)
	if b.Fingerprint != a.Fingerprint {
		t.Fatalf("snapshot replica fingerprint %q != builder's %q", b.Fingerprint, a.Fingerprint)
	}
	if b.Source != "snapshot" {
		t.Fatalf("snapshot replica source %q, want snapshot", b.Source)
	}

	// Different graph: different fingerprint, so a router can refuse it.
	og, err := reach.NewGraph(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	oo, err := reach.Build(og, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s3 := New(og, oo, Config{})
	defer s3.Close()
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	var c HealthzResponse
	getJSON(t, ts3.URL+"/v1/healthz", &c)
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("different graphs share a fingerprint")
	}
}

func TestReachableEndpoint(t *testing.T) {
	g, _, ts := fixture(t, Config{})
	oracle, err := reach.Build(g, reach.MethodBFS, reach.Options{}) // ground truth
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		var got ReachableResponse
		resp := getJSON(t, fmt.Sprintf("%s/v1/reachable?u=%d&v=%d", ts.URL, u, v), &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query (%d,%d): status %d", u, v, resp.StatusCode)
		}
		if want := oracle.Reachable(uint32(u), uint32(v)); got.Reachable != want {
			t.Fatalf("query (%d,%d): got %v want %v", u, v, got.Reachable, want)
		}
	}
	// A repeated query must come from the cache.
	getJSON(t, ts.URL+"/v1/reachable?u=0&v=1", nil)
	var got ReachableResponse
	getJSON(t, ts.URL+"/v1/reachable?u=0&v=1", &got)
	if !got.Cached {
		t.Error("repeat query not served from cache")
	}
}

func TestReachableEndpointRejectsBadInput(t *testing.T) {
	g, _, ts := fixture(t, Config{})
	for _, q := range []string{
		"u=abc&v=1",
		"u=1",
		"",
		fmt.Sprintf("u=%d&v=0", g.NumVertices()),
		"u=0&v=4294967296",
	} {
		resp := getJSON(t, ts.URL+"/v1/reachable?"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func postBatch(t testing.TB, url string, pairs [][2]uint64) (*http.Response, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("bad batch JSON %q: %v", raw, err)
		}
	}
	return resp, got
}

func TestBatchEndpoint(t *testing.T) {
	g, _, ts := fixture(t, Config{Workers: 4, BatchChunk: 16})
	oracle, err := reach.Build(g, reach.MethodBFS, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	n := uint64(g.NumVertices())
	pairs := make([][2]uint64, 1000)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(rng.Uint32()) % n, uint64(rng.Uint32()) % n}
	}
	pairs[17] = [2]uint64{n + 3, 0} // unknown vertex answers false, not 400

	resp, got := postBatch(t, ts.URL, pairs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if got.Count != len(pairs) || len(got.Results) != len(pairs) {
		t.Fatalf("batch: count %d, %d results for %d pairs", got.Count, len(got.Results), len(pairs))
	}
	for i, p := range pairs {
		want := p[0] < n && p[1] < n && oracle.Reachable(uint32(p[0]), uint32(p[1]))
		if got.Results[i] != want {
			t.Fatalf("batch pair %d (%d,%d): got %v want %v", i, p[0], p[1], got.Results[i], want)
		}
	}
}

func TestBatchEndpointLimits(t *testing.T) {
	_, _, ts := fixture(t, Config{MaxBatchPairs: 8})
	resp, _ := postBatch(t, ts.URL, make([][2]uint64, 9))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch: status %d, want 400", r2.StatusCode)
	}
	// The byte cap must trip before the decoder buffers an oversized
	// body: valid JSON padded past 48*MaxBatchPairs+4096 bytes.
	huge := append([]byte(`{"pairs":[[1,2]]`), bytes.Repeat([]byte(" "), 8192)...)
	huge = append(huge, '}')
	r3, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", r3.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	g, _, ts := fixture(t, Config{})
	// Same query twice: one miss then one hit.
	getJSON(t, ts.URL+"/v1/reachable?u=1&v=2", nil)
	getJSON(t, ts.URL+"/v1/reachable?u=1&v=2", nil)

	var got Stats
	resp := getJSON(t, ts.URL+"/v1/stats", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if got.Graph.Vertices != g.NumVertices() || got.Graph.DAGEdges != g.DAGEdges() {
		t.Errorf("stats graph section: %+v", got.Graph)
	}
	if got.Index.Method != "DL" || got.Index.SizeInts <= 0 {
		t.Errorf("stats index section: %+v", got.Index)
	}
	if got.Cache.Hits < 1 || got.Cache.Misses < 1 || got.Cache.HitRate <= 0 {
		t.Errorf("stats cache section: %+v", got.Cache)
	}
	if got.Server.Queries < 2 || got.Server.Workers <= 0 {
		t.Errorf("stats server section: %+v", got.Server)
	}
}

// TestUnknownVertexPairsNotCached pins the /v1/batch cache-pollution
// bugfix: pairs naming unknown vertices resolve to the unknownVertex
// sentinel and used to be cached under garbage (^uint32(0), v) keys,
// evicting real entries. They must bypass the cache entirely.
func TestUnknownVertexPairsNotCached(t *testing.T) {
	g, s, ts := fixture(t, Config{})
	n := uint64(g.NumVertices())
	pairs := make([][2]uint64, 50)
	for i := range pairs {
		pairs[i] = [2]uint64{n + uint64(i), uint64(i)} // unknown source vertex
	}
	resp, got := postBatch(t, ts.URL, pairs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	for i, r := range got.Results {
		if r {
			t.Fatalf("unknown-vertex pair %d answered true", i)
		}
	}
	cs := s.Stats().Cache
	if cs.Entries != 0 {
		t.Fatalf("unknown-vertex pairs left %d cache entries, want 0", cs.Entries)
	}
	if cs.Hits+cs.Misses != 0 {
		t.Fatalf("unknown-vertex pairs touched the cache counters: %+v", cs)
	}
	if q := s.Stats().Server.Queries; q != int64(len(pairs)) {
		t.Fatalf("queries counter = %d, want %d", q, len(pairs))
	}
}

// TestBatchStopsOnCancelledContext covers the deadline path below HTTP:
// a cancelled context stops chunk dispatch and surfaces the error.
func TestBatchStopsOnCancelledContext(t *testing.T) {
	g, s, _ := fixture(t, Config{Workers: 2, BatchChunk: 8})
	n := uint32(g.NumVertices())
	pairs := make([][2]uint32, 1024)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i) % n, uint32(i+1) % n}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.ReachableBatch(ctx, pairs)
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("cancelled batch returned (%v, %v), want (nil, context.Canceled)", out, err)
	}
	// An expired deadline behaves the same.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := s.ReachableBatch(dctx, pairs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline batch returned %v, want context.DeadlineExceeded", err)
	}
	// A live context still answers everything.
	out, err = s.ReachableBatch(context.Background(), pairs)
	if err != nil || len(out) != len(pairs) {
		t.Fatalf("live batch returned (%d results, %v)", len(out), err)
	}
}

// TestRequestDeadline proves an over-deadline request answers 503 and
// bumps the timed_out counter instead of running to completion.
func TestRequestDeadline(t *testing.T) {
	g, s, ts := fixture(t, Config{RequestTimeout: time.Nanosecond})
	n := uint64(g.NumVertices())
	pairs := make([][2]uint64, 4096)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(i) % n, uint64(i+1) % n}
	}
	// The batch goes out in one write over a raw connection: the server
	// answers 503 without reading the body, and a client still
	// streaming the body when the connection closes would report a
	// broken pipe instead of the answer.
	body, err := json.Marshal(BatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /v1/batch HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := conn.Write(append([]byte(head), body...)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-deadline batch: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/reachable?u=0&v=1", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-deadline single query: status %d, want 503", resp.StatusCode)
	}
	st := s.Stats().Server
	if st.TimedOut < 2 {
		t.Fatalf("timed_out counter = %d, want >= 2", st.TimedOut)
	}
	if st.Errors < st.TimedOut {
		t.Fatalf("timeouts not counted as errors: %+v", st)
	}
}

// TestTimedOutCountsExpiredDeadline pins timed_out when a request's
// deadline surfaces as a cancellation. net/http can cancel the
// connection context (its background read times out at the guard's
// socket read deadline) before the request context's own timer fires;
// the request still timed out. A cancelled request whose deadline is
// still ahead is a client that went away, and is not counted.
func TestTimedOutCountsExpiredDeadline(t *testing.T) {
	for _, tc := range []struct {
		timeout time.Duration
		want    int64
	}{
		{time.Nanosecond, 1},
		{time.Hour, 0},
	} {
		_, s, _ := fixture(t, Config{RequestTimeout: tc.timeout})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodGet, "/v1/reachable?u=0&v=1", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("timeout %s: status %d, want 503", tc.timeout, rec.Code)
		}
		if got := s.Stats().Server.TimedOut; got != tc.want {
			t.Fatalf("timeout %s: timed_out = %d, want %d", tc.timeout, got, tc.want)
		}
	}
}

// TestSlowBodyCannotHoldGateSlot proves the request deadline bounds body
// reads: a client that sends headers and then trickles the batch body
// cannot hold its admission slot (and a handler goroutine) past the
// deadline — the read is cut and the slot freed.
func TestSlowBodyCannotHoldGateSlot(t *testing.T) {
	_, s, ts := fixture(t, Config{RequestTimeout: 200 * time.Millisecond, MaxInFlight: 1})

	// Raw connection: complete headers, then stall mid-body.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/batch HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"pairs\":[[")

	// The stalled request must release its gate slot at the deadline;
	// poll briefly, then a normal query must be admitted, not 429'd.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := getJSON(t, ts.URL+"/v1/reachable?u=0&v=1", nil)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate still held %s after a %s deadline (last status %d)",
				time.Since(deadline.Add(-5*time.Second)), s.cfg.RequestTimeout, resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWriteDeadlineClearedBetweenRequests pins keep-alive hygiene: the
// guard's per-request write deadline must not outlive its request. A
// leaked deadline would kill any later response on the same connection —
// including unguarded /v1/stats, breaking the "monitoring works under
// overload" guarantee. Today net/http itself clears the write deadline
// after every served request (conn.serve, Go 1.24); this test keeps the
// guarantee pinned against both guard changes and stdlib behavior
// changes.
func TestWriteDeadlineClearedBetweenRequests(t *testing.T) {
	_, _, ts := fixture(t, Config{RequestTimeout: 200 * time.Millisecond})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(path string) int {
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\n\r\n", path)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("GET %s on keep-alive conn: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := send("/v1/reachable?u=0&v=1"); code != http.StatusOK {
		t.Fatalf("guarded request: status %d", code)
	}
	// Outlast the guarded request's write deadline (200ms + 1s grace),
	// then reuse the connection for an unguarded endpoint.
	time.Sleep(1500 * time.Millisecond)
	if code := send("/v1/stats"); code != http.StatusOK {
		t.Fatalf("stats after stale write deadline: status %d", code)
	}
}

// TestMaxInFlightGate proves admission control: with the gate full, query
// endpoints answer 429 + Retry-After immediately while healthz and stats
// stay reachable, and draining the gate restores service.
func TestMaxInFlightGate(t *testing.T) {
	_, s, ts := fixture(t, Config{MaxInFlight: 2})
	// A gate without a deadline could be pinned forever by stalled
	// clients; enabling it must imply one.
	if s.cfg.RequestTimeout != DefaultGateTimeout {
		t.Fatalf("gate without RequestTimeout got deadline %s, want %s",
			s.cfg.RequestTimeout, DefaultGateTimeout)
	}
	// Occupy both slots as two stuck in-flight requests would.
	s.gate <- struct{}{}
	s.gate <- struct{}{}

	start := time.Now()
	resp := getJSON(t, ts.URL+"/v1/reachable?u=0&v=1", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gated query: status %d, want 429", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("429 took %s; overload rejection must not queue", elapsed)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if resp, _ := postBatch(t, ts.URL, [][2]uint64{{0, 1}}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gated batch: status %d, want 429", resp.StatusCode)
	}
	// Monitoring endpoints bypass the gate.
	if resp := getJSON(t, ts.URL+"/v1/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz gated: status %d", resp.StatusCode)
	}
	var st Stats
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats gated: status %d", resp.StatusCode)
	}
	if st.Server.Rejected != 2 || st.Server.InFlight != 2 || st.Server.MaxInFlight != 2 {
		t.Fatalf("gate counters: %+v", st.Server)
	}
	// Rejections are load shedding, not errors.
	if st.Server.Errors != 0 {
		t.Fatalf("429s counted as errors: %+v", st.Server)
	}

	// Drain the gate: queries flow again.
	<-s.gate
	<-s.gate
	if resp := getJSON(t, ts.URL+"/v1/reachable?u=0&v=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain query: status %d", resp.StatusCode)
	}
}

// TestUnknownVertexMessage pins the 400 body for both ID modes: dense
// mode names the valid range, original-ID mode must not (its ID space is
// the edge-list file's, not [0, N)).
func TestUnknownVertexMessage(t *testing.T) {
	g, _, ts := fixture(t, Config{})
	var dense struct {
		Error string `json:"error"`
	}
	url := fmt.Sprintf("%s/v1/reachable?u=%d&v=0", ts.URL, g.NumVertices())
	if resp := getJSON(t, url, &dense); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if want := fmt.Sprintf("valid IDs are 0..%d", g.NumVertices()-1); !bytes.Contains([]byte(dense.Error), []byte(want)) {
		t.Fatalf("dense-mode error %q does not name the range %q", dense.Error, want)
	}

	// Original-ID mode: IDs 100, 7, 42 — "(3 vertices)" would wrongly
	// suggest 0..2 are valid.
	og, orig, err := reach.ReadGraph(bytes.NewReader([]byte("100 7\n7 42\n")))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := reach.Build(og, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(og, oracle, Config{OrigIDs: orig})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var raw struct {
		Error string `json:"error"`
	}
	if resp := getJSON(t, ts2.URL+"/v1/reachable?u=0&v=42", &raw); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if bytes.Contains([]byte(raw.Error), []byte("vertices)")) {
		t.Fatalf("orig-ID-mode error %q quotes the vertex count", raw.Error)
	}
	if !bytes.Contains([]byte(raw.Error), []byte("original")) {
		t.Fatalf("orig-ID-mode error %q does not explain the ID space", raw.Error)
	}
}

// TestServerConcurrentHammer hits the HTTP API from many goroutines with
// mixed single and batch requests; run under -race it exercises the
// cache, the metrics, and the worker pool concurrently.
func TestServerConcurrentHammer(t *testing.T) {
	g, _, ts := fixture(t, Config{Workers: 4, BatchChunk: 32, CacheCapacity: 1 << 12})
	oracle, err := reach.Build(g, reach.MethodBFS, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(g.NumVertices())

	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	client := ts.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				if i%4 == 0 { // one batch per few singles
					pairs := make([][2]uint32, 64)
					wire := make([][2]uint64, len(pairs))
					for j := range pairs {
						pairs[j] = [2]uint32{rng.Uint32() % n, rng.Uint32() % n}
						wire[j] = [2]uint64{uint64(pairs[j][0]), uint64(pairs[j][1])}
					}
					body, _ := json.Marshal(BatchRequest{Pairs: wire})
					resp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
					if err != nil {
						errc <- err
						return
					}
					var got BatchResponse
					err = json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					for j, p := range pairs {
						if got.Results[j] != oracle.Reachable(p[0], p[1]) {
							errc <- fmt.Errorf("batch pair (%d,%d) wrong under concurrency", p[0], p[1])
							return
						}
					}
					continue
				}
				u, v := rng.Uint32()%n, rng.Uint32()%n
				resp, err := client.Get(fmt.Sprintf("%s/v1/reachable?u=%d&v=%d", ts.URL, u, v))
				if err != nil {
					errc <- err
					return
				}
				var got ReachableResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if got.Reachable != oracle.Reachable(u, v) {
					errc <- fmt.Errorf("single query (%d,%d) wrong under concurrency", u, v)
					return
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Server.Queries == 0 || st.Cache.Hits+st.Cache.Misses == 0 {
		t.Errorf("hammer left no trace in stats: %+v", st)
	}
}

// TestOrigIDMapping proves the API speaks the edge-list file's own IDs
// when OrigIDs is configured, as reachd does — the same IDs reachcli
// answers with.
func TestOrigIDMapping(t *testing.T) {
	// Raw IDs 100, 7, 42 densify (in order of appearance) to 0, 1, 2.
	g, orig, err := reach.ReadGraph(bytes.NewReader([]byte("100 7\n7 42\n")))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, oracle, Config{OrigIDs: orig})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var got ReachableResponse
	if resp := getJSON(t, ts.URL+"/v1/reachable?u=100&v=42", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("raw-ID query: status %d", resp.StatusCode)
	}
	if !got.Reachable || got.U != 100 || got.V != 42 {
		t.Fatalf("raw-ID query 100->42: %+v, want reachable with echoed raw IDs", got)
	}
	// Dense ID 0 is not a raw ID of this file: it must be rejected, not
	// silently treated as vertex 100.
	if resp := getJSON(t, ts.URL+"/v1/reachable?u=0&v=42", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dense ID leaked through raw-ID API: status %d", resp.StatusCode)
	}
	resp, batch := postBatch(t, ts.URL, [][2]uint64{{100, 42}, {42, 100}, {999, 42}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw-ID batch: status %d", resp.StatusCode)
	}
	if want := []bool{true, false, false}; !slices.Equal(batch.Results, want) {
		t.Fatalf("raw-ID batch results = %v, want %v", batch.Results, want)
	}
}

// TestSnapshotRoundTripServing proves the reachd restart path: save the
// oracle snapshot, restore it, and serve identical answers — with
// /v1/stats reporting where each server's index came from.
func TestSnapshotRoundTripServing(t *testing.T) {
	g, _, ts := fixture(t, Config{})
	oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := oracle.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := reach.LoadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(loaded.Graph(), loaded, Config{})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var st, st2 Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	getJSON(t, ts2.URL+"/v1/stats", &st2)
	if st.Index.Source != "built" {
		t.Fatalf("built server reports source %q", st.Index.Source)
	}
	if st2.Index.Source != "snapshot" || st2.Index.Method != "DL" || st2.Index.SizeInts != oracle.IndexSizeInts() {
		t.Fatalf("snapshot server reports %+v", st2.Index)
	}

	rng := rand.New(rand.NewSource(5))
	n := g.NumVertices()
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		var a, b ReachableResponse
		getJSON(t, fmt.Sprintf("%s/v1/reachable?u=%d&v=%d", ts.URL, u, v), &a)
		getJSON(t, fmt.Sprintf("%s/v1/reachable?u=%d&v=%d", ts2.URL, u, v), &b)
		if a.Reachable != b.Reachable {
			t.Fatalf("snapshot-loaded server disagrees on (%d,%d)", u, v)
		}
	}
}
