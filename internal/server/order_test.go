package server

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	reach "repro"
	"repro/internal/observe"
)

// The serving order is decide, then cache, then probe: pairs the oracle
// answers without its index never touch the cache, and the cache is
// keyed by DAG-vertex pair. These tests pin each half.

// TestObserverDecidedPairSkipsCache: a pair an observer decides answers
// correctly, is never reported as cached, and leaves the cache empty and
// its counters at zero.
func TestObserverDecidedPairSkipsCache(t *testing.T) {
	g, s, ts := fixture(t, Config{})
	bfs, err := reach.Build(g, reach.MethodBFS, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.oracle.Observers()
	n := uint32(g.NumVertices())
	var u, v uint32
	for u = 0; u < n; u++ {
		if cu, cv := g.MapVertex(u), g.MapVertex(v); cu != cv && st.Query(cu, cv) != observe.Unknown {
			break
		}
	}
	if u == n {
		t.Fatal("no observer-decided pair ends at vertex 0")
	}
	url := fmt.Sprintf("%s/v1/reachable?u=%d&v=%d", ts.URL, u, v)
	for i := 0; i < 2; i++ {
		var got ReachableResponse
		getJSON(t, url, &got)
		if got.Reachable != bfs.Reachable(u, v) || got.Cached {
			t.Fatalf("query %d of decided pair (%d,%d): %+v, want reachable=%v cached=false",
				i, u, v, got, bfs.Reachable(u, v))
		}
	}
	if cs := s.Stats().Cache; cs.Entries != 0 || cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("an observer-decided pair touched the cache: %+v", cs)
	}
}

// TestSCCMembersShareCacheEntry: the cache key is the DAG-vertex pair, so
// once (a, x) has been probed, (b, x) for b in a's SCC is a hit.
func TestSCCMembersShareCacheEntry(t *testing.T) {
	g, oracle, a, b, x := sccFixture(t)
	s := New(g, oracle, Config{})
	defer s.Close()
	bfs, err := reach.Build(g, reach.MethodBFS, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bfs.Reachable(a, x)
	if ans, cached := s.Reachable(a, x); ans != want || cached {
		t.Fatalf("(%d,%d) = %v, cached %v; want %v from the index", a, x, ans, cached, want)
	}
	if ans, cached := s.Reachable(b, x); ans != want || !cached {
		t.Fatalf("(%d,%d) = %v, cached %v; want %v from the entry (%d,%d) left", b, x, ans, cached, want, a, x)
	}
	if cs := s.Stats().Cache; cs.Entries != 1 || cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache after one probe and one shared hit: %+v", cs)
	}
}

// sccFixture closes one fixture edge a → b into a cycle, so a and b are
// one SCC, trying edges in order until (a, x) is left to the index for
// some x outside that SCC.
func sccFixture(t *testing.T) (*reach.Graph, *reach.Oracle, uint32, uint32, uint32) {
	t.Helper()
	n, edges := fixtureEdges()
	for _, e := range edges {
		a, b := e[0], e[1]
		g, err := reach.NewGraph(n, append(edges[:len(edges):len(edges)], [2]uint32{b, a}))
		if err != nil {
			t.Fatal(err)
		}
		if !g.SameComponent(a, b) {
			t.Fatalf("%d and %d are not one SCC", a, b)
		}
		oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ca := g.MapVertex(a)
		for x := uint32(0); x < uint32(n); x++ {
			if cx := g.MapVertex(x); cx != ca && oracle.Observers().Query(ca, cx) == observe.Unknown {
				return g, oracle, a, b, x
			}
		}
	}
	t.Fatal("no edge closes into an SCC with an undecided pair")
	return nil, nil, 0, 0, 0
}

// TestCacheLookupsAreUndecidedPairs: on a fresh server, a batch of
// distinct pairs looks up exactly the in-range, cross-component pairs the
// observers leave undecided, and every lookup is a miss that probes the
// index and fills one entry.
func TestCacheLookupsAreUndecidedPairs(t *testing.T) {
	g, s, _ := fixture(t, Config{Workers: 4, BatchChunk: 32})
	st := s.oracle.Observers()
	n := uint32(g.NumVertices())
	rng := rand.New(rand.NewSource(5))
	seen := map[[2]uint32]bool{}
	var pairs [][2]uint32
	for len(pairs) < 2000 {
		p := [2]uint32{rng.Uint32() % n, rng.Uint32() % n}
		switch len(pairs) % 50 {
		case 0:
			p[0] = n + p[0] // unknown vertex
		case 1:
			p[1] = p[0] // same vertex
		}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	undecided := int64(0)
	for _, p := range pairs {
		if p[0] >= n || p[1] >= n {
			continue
		}
		cu, cv := g.MapVertex(p[0]), g.MapVertex(p[1])
		if cu != cv && st.Query(cu, cv) == observe.Unknown {
			undecided++
		}
	}
	if undecided == 0 || undecided == int64(len(pairs)) {
		t.Fatalf("%d of %d pairs undecided: the batch must mix decided and undecided pairs", undecided, len(pairs))
	}
	if _, err := s.ReachableBatch(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	cs := s.Stats().Cache
	if cs.Hits+cs.Misses != undecided || cs.Hits != 0 || int64(cs.Entries) != cs.Misses {
		t.Fatalf("cache after %d pairs, %d undecided: %+v; want %d misses, 0 hits, one entry per miss",
			len(pairs), undecided, cs, undecided)
	}
}
