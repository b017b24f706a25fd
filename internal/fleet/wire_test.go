package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/wireproto"
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

// startReplica serves one real replica over g/oracle and returns its base URL.
func startReplica(t *testing.T, g *reach.Graph, oracle *reach.Oracle, cfg server.Config) string {
	t.Helper()
	s := server.New(g, oracle, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL
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

// TestClientSurfaces415: a replica that refuses binary frames with 415
// (it serves JSON, but not this protocol) is a replica verdict like any
// other status. The client returns it as *StatusError and sends nothing
// else: no JSON retry, no results.
func TestClientSurfaces415(t *testing.T) {
	g, oracle := realOracle(t)
	s := server.New(g, oracle, server.Config{})
	t.Cleanup(s.Close)
	var jsonBatches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == wireproto.ContentType {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnsupportedMediaType)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "binary batch frames not accepted"})
			return
		}
		if r.URL.Path == "/v1/batch" {
			jsonBatches.Add(1)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, time.Second)

	res, err := c.Batch(context.Background(), [][2]uint64{{1, 2}, {2, 1}})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnsupportedMediaType {
		t.Fatalf("batch against a frame-refusing replica returned %v, want *StatusError 415", err)
	}
	if res != nil {
		t.Fatalf("415 batch returned results %v, want none", res)
	}
	if n := jsonBatches.Load(); n != 0 {
		t.Fatalf("client retried the refused batch as JSON %d times, want 0", n)
	}
}

// TestClientWideIDsFallBackToJSON: vertex IDs beyond uint32 cannot ride
// the binary frame; those batches silently take the JSON path per batch
// without demoting the connection.
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
	base := startReplica(t, g, oracle, server.Config{OrigIDs: orig})
	c := NewClient(base, time.Second)

	res, err := c.Batch(context.Background(), [][2]uint64{{uint64(wide), 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != oracle.Reachable(1, 2) || res[1] != oracle.Reachable(0, 2) {
		t.Fatalf("wide-ID batch answered %v", res)
	}
	if c.counters.framesBinary.Load() != 0 || c.counters.framesJSON.Load() != 1 {
		t.Fatalf("counters binary=%d json=%d, want 0 and 1",
			c.counters.framesBinary.Load(), c.counters.framesJSON.Load())
	}

	// A batch whose IDs all fit goes binary against the same replica.
	if _, err := c.Batch(context.Background(), [][2]uint64{{0, 2}}); err != nil {
		t.Fatal(err)
	}
	if c.counters.framesBinary.Load() != 1 {
		t.Fatalf("narrow batch after wide one did not go binary (binary=%d)", c.counters.framesBinary.Load())
	}
}

// TestClientBinaryErrorFrame: a binary-mode error (batch over the
// replica's limit) comes back as a wireproto error frame and surfaces as
// the same *StatusError the JSON path produces.
func TestClientBinaryErrorFrame(t *testing.T) {
	g, oracle := realOracle(t)
	base := startReplica(t, g, oracle, server.Config{MaxBatchPairs: 4})
	c := NewClient(base, time.Second)

	pairs := make([][2]uint64, 10)
	_, err := c.Batch(context.Background(), pairs)
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("over-limit binary batch returned %v, want *StatusError", err)
	}
	if se.Status != 413 || se.Body == "" {
		t.Fatalf("status error %+v, want 413 with the frame's in-band message", se)
	}
}
