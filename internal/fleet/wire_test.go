package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mux"
	"repro/internal/server"
)

// realOracle builds a small graph + DL oracle for wire tests.
func realOracle(t *testing.T) (*reach.Graph, *reach.Oracle) {
	t.Helper()
	raw := gen.CitationDAG(400, 3, 0.5, 23)
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
	return g, oracle
}

// startReplica serves one real replica over g/oracle, HTTP plus a mux
// listener whose kernel-assigned address goes into cfg.MuxAddr before
// server.New so healthz advertises it, as reachd does. It returns the
// replica's base URL.
func startReplica(t *testing.T, g *reach.Graph, oracle *reach.Oracle, cfg server.Config) string {
	t.Helper()
	muxLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.MuxAddr = muxLn.Addr().String()
	s := server.New(g, oracle, cfg)
	ms := s.NewMuxServer(func(string, ...any) {})
	go ms.Serve(muxLn)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // force-close; clients are gone by cleanup time
		ms.Shutdown(ctx)
		s.Close()
	})
	return ts.URL
}

// muxClient is a replica client connected the way a router's probe
// connects it: healthz first, then the advertised mux listener.
func muxClient(t *testing.T, base string) *Client {
	t.Helper()
	c := NewClient(base, time.Second)
	c.muxCounters = &mux.Counters{}
	hz, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UseMux(context.Background(), resolveMuxAddr(base, hz.Mux), hz.Fingerprint); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.CloseIdleConnections)
	return c
}

// replicaStatsByBase indexes a router's stats rows by replica base URL.
func replicaStatsByBase(t *testing.T, rt *Router) map[string]ReplicaStats {
	t.Helper()
	st := rt.Stats(context.Background())
	out := make(map[string]ReplicaStats, len(st.Replicas))
	for _, r := range st.Replicas {
		out[r.Base] = r
	}
	return out
}

// TestClientSurfaces415: a replica that refuses a frame in-band (a 415
// here) gives a verdict like any other status. The client returns it
// as *StatusError and sends nothing else: no retry on another
// connection, no JSON retry, no results.
func TestClientSurfaces415(t *testing.T) {
	var muxBatches, jsonBatches atomic.Int64
	ms := mux.NewServer(mux.ServerConfig{Batch: func(context.Context, string, [][2]uint32, []bool) error {
		muxBatches.Add(1)
		return &mux.Fail{Status: http.StatusUnsupportedMediaType, Msg: "batch frames not accepted"}
	}, Single: func(context.Context, string, uint32, uint32) (bool, bool, error) {
		return false, false, &mux.Fail{Status: http.StatusUnsupportedMediaType, Msg: "single frames not accepted"}
	}})
	muxLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ms.Serve(muxLn)
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ms.Shutdown(ctx)
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			jsonBatches.Add(1)
		}
		json.NewEncoder(w).Encode(server.HealthzResponse{Status: "ok", Mux: muxLn.Addr().String()})
	}))
	t.Cleanup(ts.Close)
	c := muxClient(t, ts.URL)

	res, err := c.Batch(context.Background(), [][2]uint64{{1, 2}, {2, 1}})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnsupportedMediaType {
		t.Fatalf("batch against a frame-refusing replica returned %v, want *StatusError 415", err)
	}
	if res != nil {
		t.Fatalf("415 batch returned results %v, want none", res)
	}
	if m, j := muxBatches.Load(), jsonBatches.Load(); m != 1 || j != 0 {
		t.Fatalf("refused batch sent %d times over mux and %d as JSON, want 1 and 0", m, j)
	}
}

// TestClientWideIDsFallBackToJSON: vertex IDs beyond uint32 cannot ride
// the binary frame; those batches take JSON over HTTP, batch by batch,
// while the next narrow batch goes over mux again.
func TestClientWideIDsFallBackToJSON(t *testing.T) {
	raw := gen.CitationDAG(50, 2, 0.5, 3)
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
	// Original-ID mode with one ID off the uint32 end of the space.
	wide := int64(math.MaxUint32) + 7
	orig := make([]int64, g.NumVertices())
	for i := range orig {
		orig[i] = int64(i)
	}
	orig[1] = wide
	c := muxClient(t, startReplica(t, g, oracle, server.Config{OrigIDs: orig}))

	res, err := c.Batch(context.Background(), [][2]uint64{{uint64(wide), 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != oracle.Reachable(1, 2) || res[1] != oracle.Reachable(0, 2) {
		t.Fatalf("wide-ID batch answered %v", res)
	}
	if c.muxCounters.FramesTx.Load() != 0 || c.counters.framesJSON.Load() != 1 {
		t.Fatalf("counters mux=%d json=%d, want 0 and 1",
			c.muxCounters.FramesTx.Load(), c.counters.framesJSON.Load())
	}

	// A batch whose IDs all fit goes over mux to the same replica.
	if _, err := c.Batch(context.Background(), [][2]uint64{{0, 2}}); err != nil {
		t.Fatal(err)
	}
	if c.muxCounters.FramesTx.Load() != 1 || c.counters.framesJSON.Load() != 1 {
		t.Fatalf("narrow batch after wide one: mux=%d json=%d, want 1 and 1",
			c.muxCounters.FramesTx.Load(), c.counters.framesJSON.Load())
	}
}

// TestClientBinaryErrorFrame: a batch over the replica's limit comes
// back over mux as an in-band error frame and surfaces as the same
// *StatusError an HTTP error status produces; the connection keeps
// serving.
func TestClientBinaryErrorFrame(t *testing.T) {
	g, oracle := realOracle(t)
	c := muxClient(t, startReplica(t, g, oracle, server.Config{MaxBatchPairs: 4}))

	pairs := make([][2]uint64, 10)
	_, err := c.Batch(context.Background(), pairs)
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("over-limit batch returned %v, want *StatusError", err)
	}
	if se.Status != 413 || se.Body == "" {
		t.Fatalf("status error %+v, want 413 with the frame's in-band message", se)
	}
	if _, err := c.Batch(context.Background(), pairs[:4]); err != nil {
		t.Fatalf("batch within the limit after a 413: %v", err)
	}
	// The handshake and the first batch each dialed one of the pool's
	// two connections; the 413 closed neither.
	if n := c.MuxOpenConns(); n != 2 {
		t.Fatalf("%d open mux connections after the 413, want 2", n)
	}
}
