package observe

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/graph"
)

// randomDAG builds a DAG with n vertices where each forward pair (u, v)
// with u < v gets an edge with probability p. Vertex IDs are already a
// topological order, so no cycles are possible.
func randomDAG(t testing.TB, n int, p float64, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(graph.Vertex(u), graph.Vertex(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("building random DAG: %v", err)
	}
	return g
}

// bruteReach computes the full transitive closure by BFS from every
// vertex — the ground truth the observers must never contradict.
func bruteReach(g *graph.Graph) [][]bool {
	n := g.NumVertices()
	reach := make([][]bool, n)
	for s := 0; s < n; s++ {
		reach[s] = make([]bool, n)
		stack := []uint32{uint32(s)}
		reach[s][s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Out(v) {
				if !reach[s][w] {
					reach[s][w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return reach
}

// TestQuerySoundness is the core property: on every pair of every graph,
// a Positive verdict implies reachable and a Negative verdict implies
// unreachable. Unknown is always allowed.
func TestQuerySoundness(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"sparse":    randomDAG(t, 120, 0.02, 1),
		"medium":    randomDAG(t, 120, 0.08, 2),
		"dense":     randomDAG(t, 80, 0.3, 3),
		"edgeless":  randomDAG(t, 30, 0, 4),
		"singleton": randomDAG(t, 1, 0, 5),
		"chain": graph.MustFromEdges(6, [][2]graph.Vertex{
			{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
		}),
	}
	for name, g := range graphs {
		for _, k := range []int{0, 1, 64} { // 0 = auto
			st := Build(g, Config{Supportive: k})
			truth := bruteReach(g)
			n := g.NumVertices()
			decided, total := 0, 0
			for s := 0; s < n; s++ {
				for u := 0; u < n; u++ {
					if s == u {
						continue // callers answer same-vertex before the stack
					}
					total++
					switch v := st.Query(uint32(s), uint32(u)); v {
					case Positive:
						decided++
						if !truth[s][u] {
							t.Fatalf("%s k=%d: Query(%d,%d)=Positive but unreachable", name, k, s, u)
						}
					case Negative:
						decided++
						if truth[s][u] {
							t.Fatalf("%s k=%d: Query(%d,%d)=Negative but reachable", name, k, s, u)
						}
					case Unknown:
					default:
						t.Fatalf("%s k=%d: Query(%d,%d) returned invalid verdict %d", name, k, s, u, v)
					}
				}
			}
			var hits int64
			for _, kind := range Kinds() {
				hits += st.Hits(kind)
			}
			if hits != int64(decided) {
				t.Fatalf("%s k=%d: %d decided queries but %d counter hits", name, k, decided, hits)
			}
			if total > 0 {
				t.Logf("%s k=%d: decided %d/%d (%.0f%%)", name, k, decided, total, 100*float64(decided)/float64(total))
			}
		}
	}
}

// TestObserverKindsFire pins that each observer actually decides queries
// on a graph shaped to exercise it — a counter that can never fire would
// make the stats lie.
func TestObserverKindsFire(t *testing.T) {
	//      0 → 1 → 2 → 3      (a chain: 1,2 are high-coverage)
	//      4                  (isolated: degenerate)
	g := graph.MustFromEdges(5, [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}})
	st := Build(g, Config{Supportive: 2})

	if v := st.Query(4, 0); v != Negative {
		t.Fatalf("Query(isolated, 0) = %d, want Negative", v)
	}
	if st.Hits(Degenerate) == 0 {
		t.Error("degenerate observer did not fire on an out-degree-0 source")
	}
	if v := st.Query(3, 0); v != Negative {
		t.Fatalf("Query(3, 0) = %d, want Negative", v)
	}
	// (3, 0) is degenerate twice over (out-degree-0 source, in-degree-0
	// target); (2, 1) goes backward in topo order with both endpoints
	// non-degenerate, so the interval observer must decide it.
	if v := st.Query(2, 1); v != Negative {
		t.Fatalf("Query(2, 1) = %d, want Negative", v)
	}
	if st.Hits(TopoInterval) == 0 {
		t.Error("topo-interval observer did not fire on a backward query")
	}
	// Supportive vertices on this graph are the chain's middle (degree
	// product ranks 1 and 2 highest); 0→3 passes through both.
	if v := st.Query(0, 3); v != Positive {
		t.Fatalf("Query(0, 3) = %d, want Positive", v)
	}
	if st.Hits(SupportivePositive) == 0 {
		t.Error("supportive-positive observer did not fire on a through-hub pair")
	}
}

// TestSupportiveNegativeFires builds a graph where the interval test
// passes but a supportive certificate proves unreachability: two
// chains interleaved in topological order, queried across.
func TestSupportiveNegativeFires(t *testing.T) {
	//        0            With this package's LIFO Kahn order
	//      / | \          (0,3,5,2,1,4,6), querying (3, 4):
	//     1  2  3         pos 1 < 5 ≤ fmax[3]=pos[6]=6 and
	//      \ |   \        bmin[4]=pos[0]=0 ≤ 1, so intervals pass and
	//        4    5       neither endpoint is degenerate. Supportive
	//         \  /        vertices (top degree products) are 4 and 0;
	//          6          4 reaches itself but 3 never reaches 4, so
	//                     bwd[4] &^ bwd[3] ≠ 0 refutes the pair.
	g := graph.MustFromEdges(7, [][2]graph.Vertex{
		{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 5}, {4, 6}, {5, 6},
	})
	st := Build(g, Config{Supportive: 2})

	if v := st.Query(3, 4); v != Negative {
		t.Fatalf("Query(3, 4) = %d, want Negative", v)
	}
	if st.Hits(SupportiveNegative) == 0 {
		t.Fatalf("supportive-negative observer did not decide the cross-chain pair (hits: %v)", st.HitsMap())
	}
}

// TestBuildDeterminism pins that two builds over the same graph produce
// identical precomputed state (the snapshot section depends on it).
func TestBuildDeterminism(t *testing.T) {
	g := randomDAG(t, 200, 0.05, 42)
	a, b := Build(g, Config{}), Build(g, Config{})
	var bufA, bufB bytes.Buffer
	if err := EncodeSection(a, blockio.NewWriter(&bufA)); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSection(b, blockio.NewWriter(&bufB)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("two builds of the same graph encoded differently")
	}
}

// TestAutoSupportive pins the automatic budget: ~4·log₂ n, floored at 4,
// capped at 64 and at n.
func TestAutoSupportive(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 4}, {10, 16}, {1 << 10, 40}, {1 << 20, 64}, {1 << 31, 64},
	}
	for _, c := range cases {
		if got := autoSupportive(c.n); got != c.want {
			t.Errorf("autoSupportive(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	g := randomDAG(t, 3, 0.5, 7)
	if st := Build(g, Config{}); st.SupportiveCount() > 3 {
		t.Errorf("%d supportive vertices on a 3-vertex graph", st.SupportiveCount())
	}
	if st := Build(g, Config{Supportive: 100}); st.SupportiveCount() > 3 {
		t.Errorf("Supportive=100 not capped: got %d on a 3-vertex graph", st.SupportiveCount())
	}
}

func encodeStack(t *testing.T, st *Stack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSection(st, blockio.NewWriter(&buf)); err != nil {
		t.Fatalf("encoding section: %v", err)
	}
	return buf.Bytes()
}

// sameState compares everything DecodeSection restores.
func sameState(a, b *Stack) bool {
	if len(a.pos) != len(b.pos) || len(a.sup) != len(b.sup) {
		return false
	}
	for i := range a.sup {
		if a.sup[i] != b.sup[i] {
			return false
		}
	}
	for i := range a.pos {
		if a.pos[i] != b.pos[i] || a.fmax[i] != b.fmax[i] || a.bmin[i] != b.bmin[i] ||
			a.fwd[i] != b.fwd[i] || a.bwd[i] != b.bwd[i] {
			return false
		}
	}
	return true
}

// TestSectionRoundTrip decodes an encoded section through the zero-copy
// slice reader (the mmap path) back to the encoded state.
func TestSectionRoundTrip(t *testing.T) {
	g := randomDAG(t, 150, 0.04, 9)
	st := Build(g, Config{})
	raw := encodeStack(t, st)

	if want := st.SectionBytes(); int64(len(raw)) != want {
		t.Fatalf("SectionBytes() = %d but encoded %d bytes", want, len(raw))
	}

	dec, err := DecodeSection(g, blockio.NewSliceReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !sameState(st, dec) {
		t.Fatal("decode: state differs from encoded stack")
	}
	if !dec.FromSnapshot() {
		t.Error("decode: FromSnapshot() = false")
	}
	if dec.SizeInts() != st.SizeInts() {
		t.Errorf("decode: SizeInts %d != %d", dec.SizeInts(), st.SizeInts())
	}
}

// TestSectionCorruption is the deterministic sweep the ISSUE asks for at
// the section level: every truncation length and every single-byte flip
// must either fail to decode or decode to exactly the encoded state —
// never to a stack that would answer differently.
func TestSectionCorruption(t *testing.T) {
	g := randomDAG(t, 40, 0.1, 11)
	st := Build(g, Config{})
	raw := encodeStack(t, st)

	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeSection(g, blockio.NewSliceReader(raw[:cut])); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation succeeded", cut, len(raw))
		}
	}
	for off := 0; off < len(raw); off++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := bytes.Clone(raw)
			mut[off] ^= bit
			dec, err := DecodeSection(g, blockio.NewSliceReader(mut))
			if err != nil {
				continue
			}
			if !sameState(st, dec) {
				t.Fatalf("flip of bit %#x at offset %d decoded to different state with no error", bit, off)
			}
		}
	}
}

// TestSectionWrongGraph pins that a section saved for one graph refuses
// to decode against a structurally different one.
func TestSectionWrongGraph(t *testing.T) {
	g1 := randomDAG(t, 60, 0.1, 20)
	g2 := randomDAG(t, 61, 0.1, 21)
	raw := encodeStack(t, Build(g1, Config{}))
	if _, err := DecodeSection(g2, blockio.NewSliceReader(raw)); err == nil {
		t.Fatal("section for a 60-vertex graph decoded against a 61-vertex graph")
	}
}

// TestSectionVersionRejected pins forward compatibility: a future
// section version must error, not misparse.
func TestSectionVersionRejected(t *testing.T) {
	g := randomDAG(t, 10, 0.2, 30)
	raw := encodeStack(t, Build(g, Config{}))
	raw[0] = sectionVersion + 1 // version is the first little-endian word
	if _, err := DecodeSection(g, blockio.NewSliceReader(raw)); err == nil {
		t.Fatal("unknown section version decoded without error")
	}
}

// TestHitsMapLabels pins the metric label set.
func TestHitsMapLabels(t *testing.T) {
	st := Build(randomDAG(t, 10, 0.2, 40), Config{})
	m := st.HitsMap()
	for _, want := range []string{"degenerate", "topo_interval", "supportive_positive", "supportive_negative"} {
		if _, ok := m[want]; !ok {
			t.Errorf("HitsMap missing label %q", want)
		}
	}
	if len(m) != 4 {
		t.Errorf("HitsMap has %d entries, want 4", len(m))
	}
}

// TestQueryZeroAlloc pins the //reach:hotpath contract reachlint
// enforces statically: the observer fast path answers without touching
// the heap, whichever branch decides.
func TestQueryZeroAlloc(t *testing.T) {
	g := randomDAG(t, 200, 0.05, 9)
	st := Build(g, Config{})
	allocs := testing.AllocsPerRun(1000, func() {
		st.Query(1, 7)
		st.Query(7, 1)
		st.Query(3, 199)
		st.Query(199, 3)
	})
	if allocs != 0 {
		t.Fatalf("Query allocated %v times per run; the hot path must be allocation-free", allocs)
	}
}
