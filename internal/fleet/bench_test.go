package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"testing"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// benchFleet stands up n real replicas (shared immutable oracle, the
// same thing N mmaps of one snapshot give), each with a stream-transport
// listener advertised in healthz as reachd does, and a router over
// them.
func benchFleet(b *testing.B, n int) (*Router, *reach.Graph) {
	b.Helper()
	raw := gen.CitationDAG(5000, 4, 0.5, 3)
	edges := make([][2]uint32, 0, raw.NumEdges())
	raw.Edges(func(u, v graph.Vertex) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	g, err := reach.NewGraph(raw.NumVertices(), edges)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var bases []string
	for i := 0; i < n; i++ {
		muxLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		s := server.New(g, oracle, server.Config{MuxAddr: muxLn.Addr().String()})
		ms := s.NewMuxServer(func(string, ...any) {})
		go ms.Serve(muxLn)
		b.Cleanup(func() {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // force-close; the router is gone by cleanup time
			ms.Shutdown(ctx)
		})
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(func() { ts.Close(); s.Close() })
		bases = append(bases, ts.URL)
	}
	cfg := Config{Replicas: bases, Logf: func(string, ...any) {}}
	rt, err := New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	return rt, g
}

func benchPairs(g *reach.Graph, size int) [][2]uint64 {
	rng := rand.New(rand.NewSource(77))
	n := g.NumVertices()
	pairs := make([][2]uint64, size)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(rng.Intn(n)), uint64(rng.Intn(n))}
	}
	return pairs
}

// BenchmarkRouterBatch measures the scatter-gather fan-out overhead: one
// batch through a router fronting 1 vs 3 replicas, with the pairs/op
// rate making throughput comparable to the single-node
// BenchmarkServerBatch. replicas=1 isolates the router's own hop (proxy
// + merge cost); replicas=3 adds the scatter across the fleet. The two
// batch sizes separate the regimes: at 512 pairs the per-request
// transport overhead dominates, at 4096 the replica's serving compute
// does. Row names keep wire=mux, the transport every sub-batch takes,
// so they continue the rows of earlier baselines. Untimed priming
// batches warm the replica caches and dial the connection pools, so the
// loop measures steady-state serving, not oracle warmup.
func BenchmarkRouterBatch(b *testing.B) {
	for _, n := range []int{1, 3} {
		for _, batch := range []int{512, 4096} {
			b.Run(fmt.Sprintf("replicas=%d/wire=mux/batch=%d", n, batch), func(b *testing.B) {
				rt, g := benchFleet(b, n)
				pairs := benchPairs(g, batch)
				ctx := context.Background()
				// Priming, repeated enough times that every replica's
				// caches are warm and every pool connection has been
				// round-robin'd to and dialed.
				for range 4 {
					if _, err := rt.Batch(ctx, pairs); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rt.Batch(ctx, pairs); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "pairs/sec")
			})
		}
	}
}

// BenchmarkDirectBatch is the no-router baseline: the same 4096-pair
// batch straight to one replica over the same client code path, cache
// primed like BenchmarkRouterBatch. The delta to
// BenchmarkRouterBatch/replicas=1 is the router's added hop.
func BenchmarkDirectBatch(b *testing.B) {
	const batch = 4096
	b.Run("wire=mux", func(b *testing.B) {
		rt, g := benchFleet(b, 1)
		pairs := benchPairs(g, batch)
		c := rt.replicas[0].client
		ctx := context.Background()
		if _, err := c.Batch(ctx, pairs); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Batch(ctx, pairs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "pairs/sec")
	})
}
