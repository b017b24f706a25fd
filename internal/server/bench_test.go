package server

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

func benchFixture(b *testing.B, cfg Config) (*Server, [][2]uint32) {
	b.Helper()
	raw := gen.CitationDAG(20000, 4, 0.5, 9)
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
	s := New(g, oracle, cfg)
	b.Cleanup(s.Close)

	rng := rand.New(rand.NewSource(33))
	n := uint32(g.NumVertices())
	pairs := make([][2]uint32, 1<<14)
	for i := range pairs {
		pairs[i] = [2]uint32{rng.Uint32() % n, rng.Uint32() % n}
	}
	return s, pairs
}

// BenchmarkServerBatch measures throughput of the batch path — cache +
// worker pool — the baseline later scaling PRs must beat.
func BenchmarkServerBatch(b *testing.B) {
	s, pairs := benchFixture(b, Config{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ReachableBatch(ctx, pairs)
	}
	b.StopTimer()
	qps := float64(b.N) * float64(len(pairs)) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/sec")
}

// BenchmarkCachedReachable measures the fully cache-hit single-query
// path: one warmup pass populates every pair, then all queries hit.
func BenchmarkCachedReachable(b *testing.B) {
	s, pairs := benchFixture(b, Config{})
	for _, p := range pairs {
		s.Reachable(p[0], p[1]) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		s.Reachable(p[0], p[1])
	}
	b.StopTimer()
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/sec")
}

// zipfPairs draws a query stream whose pair popularity follows a Zipf
// distribution with exponent s over a universe of distinct pairs — the
// canonical model of the skewed, repeat-heavy traffic a public oracle
// endpoint sees, and the workload a cache admission policy is judged on.
func zipfPairs(n uint32, universe, count int, s float64, seed int64) [][2]uint32 {
	rng := rand.New(rand.NewSource(seed))
	distinct := make([][2]uint32, universe)
	for i := range distinct {
		distinct[i] = [2]uint32{rng.Uint32() % n, rng.Uint32() % n}
	}
	z := rand.NewZipf(rng, s, 1, uint64(universe-1))
	out := make([][2]uint32, count)
	for i := range out {
		out[i] = distinct[z.Uint64()]
	}
	return out
}

// BenchmarkCacheHitRateZipf measures the cache's steady-state hit rate
// under Zipfian traffic, at a cache an order of magnitude smaller than
// the distinct-pair universe so replacement matters;
// TestZipfS3FIFOBeatsFIFO pins it above plain FIFO. The hit rate counts
// only the pairs the observers leave undecided, the only ones the cache
// sees. queries/sec is the end-to-end throughput at that hit rate.
func BenchmarkCacheHitRateZipf(b *testing.B) {
	for _, zs := range []float64{1.07, 1.5} {
		b.Run(fmt.Sprintf("s=%.2f", zs), func(b *testing.B) {
			const universe = 1 << 16
			s, _ := benchFixture(b, Config{CacheCapacity: universe / 8})
			pairs := zipfPairs(uint32(s.g.NumVertices()), universe, 1<<17, zs, 41)
			// Warm to steady state, then measure from clean counters.
			for _, p := range pairs {
				s.Reachable(p[0], p[1])
			}
			before := s.Stats().Cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				s.Reachable(p[0], p[1])
			}
			b.StopTimer()
			after := s.Stats().Cache
			if total := (after.Hits + after.Misses) - (before.Hits + before.Misses); total > 0 {
				rate := float64(after.Hits-before.Hits) / float64(total)
				b.ReportMetric(rate*100, "hit%")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkUncachedReachable is the same path with the cache disabled —
// the spread between this and BenchmarkCachedReachable is what the cache
// buys on repeat-heavy workloads.
func BenchmarkUncachedReachable(b *testing.B) {
	s, pairs := benchFixture(b, Config{CacheCapacity: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		s.Reachable(p[0], p[1])
	}
	b.StopTimer()
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/sec")
}
