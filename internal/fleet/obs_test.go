package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// logBuffer is a goroutine-safe bytes.Buffer for slow-log capture.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTracePropagationE2E drives a query through the full chain — client
// sets X-Reach-Trace, router forwards it to the replica it picks, and
// the router's response echoes it — so one grep of any tier's logs
// follows the request.
func TestTracePropagationE2E(t *testing.T) {
	f := newFakeReplica("fp-trace", xorAnswer)
	base := f.start(t)
	rt := newTestRouter(t, silentCfg(base))
	waitState(t, rt, base, stateHealthy)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/reachable?u=3&v=9", nil)
	req.Header.Set(obs.TraceHeader, "e2e-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "e2e-trace-42" {
		t.Fatalf("router trace echo: %q, want e2e-trace-42", got)
	}
	if got, _ := f.lastTrace.Load().(string); got != "e2e-trace-42" {
		t.Fatalf("replica received trace %q, want e2e-trace-42", got)
	}
	st := resp.Header.Get(obs.ServerTimingHeader)
	for _, stage := range []string{"route;dur=", "total;dur="} {
		if !strings.Contains(st, stage) {
			t.Fatalf("router server timing %q missing %s", st, stage)
		}
	}

	// Without a client ID the router mints one and still forwards it.
	resp, err = http.Get(ts.URL + "/v1/reachable?u=1&v=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(obs.TraceHeader)
	if len(minted) != 16 {
		t.Fatalf("minted trace ID %q, want 16 hex chars", minted)
	}
	if got, _ := f.lastTrace.Load().(string); got != minted {
		t.Fatalf("replica received trace %q, router minted %q", got, minted)
	}
	// Both singles carried their trace in the single frame's envelope.
	if mx, gets := f.singleCalls.Load(), f.httpSingles.Load(); mx != 2 || gets != 0 {
		t.Fatalf("replica saw %d mux singles and %d HTTP GETs, want 2 and 0", mx, gets)
	}

	// Batches propagate the same way.
	body, _ := json.Marshal(server.BatchRequest{Pairs: [][2]uint64{{1, 2}, {3, 4}}})
	breq, _ := http.NewRequest("POST", ts.URL+"/v1/batch", bytes.NewReader(body))
	breq.Header.Set(obs.TraceHeader, "e2e-batch-trace")
	resp, err = http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got, _ := f.lastTrace.Load().(string); got != "e2e-batch-trace" {
		t.Fatalf("replica received batch trace %q, want e2e-batch-trace", got)
	}
	// A batch also times its JSON edge: decoding the body and encoding
	// the answer.
	st = resp.Header.Get(obs.ServerTimingHeader)
	for _, stage := range []string{"decode;dur=", "route;dur=", "encode;dur=", "total;dur="} {
		if !strings.Contains(st, stage) {
			t.Fatalf("router batch server timing %q missing %s", st, stage)
		}
	}
}

func TestRouterMetricsEndpoint(t *testing.T) {
	f1 := newFakeReplica("fp-met", xorAnswer)
	f2 := newFakeReplica("fp-met", xorAnswer)
	b1, b2 := f1.start(t), f2.start(t)
	rt := newTestRouter(t, silentCfg(b1, b2))
	waitState(t, rt, b1, stateHealthy)
	waitState(t, rt, b2, stateHealthy)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for i := 0; i < 7; i++ {
		resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/reachable?u=%d&v=%d", i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	body, _ := json.Marshal(server.BatchRequest{Pairs: [][2]uint64{{0, 1}, {2, 3}}})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`reach_http_request_seconds_count{endpoint="reachable"} 7`,
		`reach_http_request_seconds_count{endpoint="batch"} 1`,
		"reach_router_requests_total 7",
		"reach_router_batch_requests_total 1",
		"reach_router_replicas_healthy 2",
		"reach_router_replicas_total 2",
		"reach_router_scatter_seconds_count 1",
		`reach_router_stage_seconds_count{stage="edge_decode"} 1`,
		`reach_router_stage_seconds_count{stage="edge_encode"} 1`,
		`reach_build_info{go_version="` + runtime.Version() + `"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("router /metrics missing %q:\n%s", want, text)
		}
	}
	// Per-replica RTT histograms exist for both backends, and together
	// they account for every routed call (7 singles + 1 sub-batch).
	var rttTotal int64
	for _, base := range []string{b1, b2} {
		h, err := obs.ParseHistogram(bytes.NewReader(raw), "reach_router_upstream_seconds",
			obs.Labels{"replica": base})
		if err != nil {
			t.Fatalf("upstream histogram for %s: %v", base, err)
		}
		rttTotal += h.Count
	}
	if rttTotal != 8 {
		t.Fatalf("upstream RTT samples %d, want 8", rttTotal)
	}
	if !strings.Contains(text, "reach_router_probes_total") {
		t.Fatal("router /metrics missing probe counter")
	}
}

// TestRouterSlowQueryLog injects real latency at a replica and checks
// the router's slow-query log catches the request that crossed the
// threshold, carrying its trace ID and route timing.
func TestRouterSlowQueryLog(t *testing.T) {
	f := newFakeReplica("fp-slow", xorAnswer)
	f.delay = 30 * time.Millisecond
	base := f.start(t)
	var buf logBuffer
	cfg := silentCfg(base)
	cfg.SlowQueryThreshold = 5 * time.Millisecond
	cfg.SlowQueryWriter = &buf
	rt := newTestRouter(t, cfg)
	waitState(t, rt, base, stateHealthy)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/reachable?u=5&v=6", nil)
	req.Header.Set(obs.TraceHeader, "slow-route-trace")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var recs []server.SlowQueryRecord
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var rec server.SlowQueryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad slow-log line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 1 {
		t.Fatalf("%d slow records, want 1:\n%s", len(recs), buf.String())
	}
	rec := recs[0]
	if rec.Trace != "slow-route-trace" || rec.Endpoint != "reachable" || rec.Status != http.StatusOK {
		t.Fatalf("slow record: %+v", rec)
	}
	if rec.DurationMS < 25 {
		t.Fatalf("slow record duration %.1fms, want >= 25ms (injected 30ms)", rec.DurationMS)
	}
	if rec.StagesMS["route"] <= 0 {
		t.Fatalf("slow record missing route stage: %+v", rec)
	}
	if rt.met.slow.Emitted() != 1 {
		t.Fatalf("slow counter %d, want 1", rt.met.slow.Emitted())
	}
}

// TestRouterHealthzBuildInfo checks the router reports its own build
// identity and that replica build info (when the replica reports any)
// lands in per-replica stats.
func TestRouterHealthzBuildInfo(t *testing.T) {
	f := newFakeReplica("fp-build", xorAnswer)
	base := f.start(t)
	rt := newTestRouter(t, silentCfg(base))
	waitState(t, rt, base, stateHealthy)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz RouterHealthz
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.GoVersion != runtime.Version() {
		t.Fatalf("router go_version %q, want %q", hz.GoVersion, runtime.Version())
	}
	if hz.UptimeSeconds <= 0 {
		t.Fatalf("router uptime %g, want > 0", hz.UptimeSeconds)
	}
}
