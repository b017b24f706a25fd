package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// diamond returns the 4-vertex diamond DAG 0->1, 0->2, 1->3, 2->3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	return MustFromEdges(4, [][2]Vertex{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

// randomDigraph builds a random (possibly cyclic) digraph for property tests.
func randomDigraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := Vertex(rng.Intn(n))
		v := Vertex(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// randomDAG builds a random DAG: edges always go from lower to higher ID.
func randomDAG(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		b.AddEdge(Vertex(u), Vertex(v))
	}
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := diamond(t)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.Out(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Out(0) = %v, want [1 2]", got)
	}
	if got := g.In(3); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("In(3) = %v, want [1 2]", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g := MustFromEdges(3, [][2]Vertex{{0, 1}, {0, 1}, {0, 1}, {1, 2}})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a self-loop")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted an out-of-range endpoint")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if order, ok := TopoOrder(g); !ok || len(order) != 0 {
		t.Errorf("TopoOrder on empty graph = %v, %v", order, ok)
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		u, v Vertex
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 3, true}, {2, 3, true},
		{0, 3, false}, {1, 2, false}, {3, 0, false}, {1, 0, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestReverse(t *testing.T) {
	g := diamond(t)
	r := g.Reverse()
	if !r.HasEdge(3, 1) || !r.HasEdge(1, 0) {
		t.Error("Reverse missing flipped edges")
	}
	if r.HasEdge(0, 1) {
		t.Error("Reverse kept original edge direction")
	}
	if err := r.Validate(); err != nil {
		t.Errorf("reverse Validate: %v", err)
	}
	// Reversing twice restores the original edge set.
	rr := r.Reverse()
	if !reflect.DeepEqual(rr.EdgeList(), g.EdgeList()) {
		t.Error("double Reverse != original")
	}
}

func TestRootsAndSinks(t *testing.T) {
	g := diamond(t)
	if got := g.Roots(); !reflect.DeepEqual(got, []Vertex{0}) {
		t.Errorf("Roots = %v, want [0]", got)
	}
	if got := g.Sinks(); !reflect.DeepEqual(got, []Vertex{3}) {
		t.Errorf("Sinks = %v, want [3]", got)
	}
}

func TestSubgraph(t *testing.T) {
	g := diamond(t)
	sub, orig := Subgraph(g, []Vertex{0, 1, 3})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub n = %d, want 3", sub.NumVertices())
	}
	// Edges kept: 0->1 and 1->3 (which map to 0->1, 1->2 in the subgraph).
	if sub.NumEdges() != 2 || !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) {
		t.Errorf("sub edges wrong: %v", sub.EdgeList())
	}
	if !reflect.DeepEqual(orig, []Vertex{0, 1, 3}) {
		t.Errorf("orig = %v", orig)
	}
}

func TestTopoOrderDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 50, 120)
		order, ok := TopoOrder(g)
		if !ok {
			t.Fatal("random DAG reported cyclic")
		}
		pos := make([]int, g.NumVertices())
		for i, v := range order {
			pos[v] = i
		}
		g.Edges(func(u, v Vertex) bool {
			if pos[u] >= pos[v] {
				t.Errorf("topo order violated for edge (%d,%d)", u, v)
			}
			return true
		})
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := MustFromEdges(3, [][2]Vertex{{0, 1}, {1, 2}, {2, 0}})
	if _, ok := TopoOrder(g); ok {
		t.Fatal("cycle not detected")
	}
	if IsDAG(g) {
		t.Fatal("IsDAG true for a cycle")
	}
}

func TestTopoLevels(t *testing.T) {
	// Path 0->1->2 plus shortcut 0->2: level(2) = 2 (longest path).
	g := MustFromEdges(3, [][2]Vertex{{0, 1}, {1, 2}, {0, 2}})
	level, maxLevel := TopoLevels(g)
	if maxLevel != 2 {
		t.Fatalf("maxLevel = %d, want 2", maxLevel)
	}
	want := []int32{0, 1, 2}
	if !reflect.DeepEqual(level, want) {
		t.Errorf("levels = %v, want %v", level, want)
	}
	rlevel, _ := ReverseTopoLevels(g)
	if rlevel[0] != 2 || rlevel[2] != 0 {
		t.Errorf("reverse levels = %v", rlevel)
	}
}

func TestSCCSimple(t *testing.T) {
	// Two 2-cycles joined by one edge: {0,1} -> {2,3}.
	g := MustFromEdges(4, [][2]Vertex{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}})
	comp, k := SCC(g)
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Errorf("comp = %v", comp)
	}
}

func TestCondensePreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		g := randomDigraph(rng, 40, 90)
		c := Condense(g)
		if !IsDAG(c.DAG) {
			t.Fatal("condensation is not a DAG")
		}
		vg := NewVisitor(g.NumVertices())
		vd := NewVisitor(c.DAG.NumVertices())
		for i := 0; i < 50; i++ {
			u := Vertex(rng.Intn(g.NumVertices()))
			v := Vertex(rng.Intn(g.NumVertices()))
			orig := vg.Reachable(g, u, v)
			cond := c.Comp[u] == c.Comp[v] || vd.Reachable(c.DAG, c.Comp[u], c.Comp[v])
			if orig != cond {
				t.Fatalf("trial %d: reach(%d,%d) = %v in g but %v in condensation", trial, u, v, orig, cond)
			}
		}
		// Members partition the vertex set.
		seen := 0
		for _, mem := range c.Members {
			seen += len(mem)
		}
		if seen != g.NumVertices() {
			t.Errorf("members cover %d of %d vertices", seen, g.NumVertices())
		}
	}
}

func TestCondenseAcyclicIsIdentitySized(t *testing.T) {
	g := diamond(t)
	c := Condense(g)
	if c.DAG.NumVertices() != 4 || c.DAG.NumEdges() != 4 {
		t.Errorf("condensing a DAG changed size: %v", c.DAG)
	}
}

func TestBFSForwardBackward(t *testing.T) {
	g := diamond(t)
	vst := NewVisitor(g.NumVertices())
	var fwd []Vertex
	vst.BFS(g, 0, Forward, func(v Vertex, _ int32) bool {
		fwd = append(fwd, v)
		return true
	})
	sort.Slice(fwd, func(i, j int) bool { return fwd[i] < fwd[j] })
	if !reflect.DeepEqual(fwd, []Vertex{0, 1, 2, 3}) {
		t.Errorf("forward BFS from 0 visited %v", fwd)
	}
	var bwd []Vertex
	vst.BFS(g, 3, Backward, func(v Vertex, _ int32) bool {
		bwd = append(bwd, v)
		return true
	})
	sort.Slice(bwd, func(i, j int) bool { return bwd[i] < bwd[j] })
	if !reflect.DeepEqual(bwd, []Vertex{0, 1, 2, 3}) {
		t.Errorf("backward BFS from 3 visited %v", bwd)
	}
}

func TestBFSPruning(t *testing.T) {
	// Chain 0->1->2->3; pruning at 1 must hide 2 and 3.
	g := MustFromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	vst := NewVisitor(4)
	var seen []Vertex
	vst.BFS(g, 0, Forward, func(v Vertex, _ int32) bool {
		seen = append(seen, v)
		return v != 1
	})
	if !reflect.DeepEqual(seen, []Vertex{0, 1}) {
		t.Errorf("pruned BFS visited %v, want [0 1]", seen)
	}
}

func TestBoundedBFSAndKNeighborhood(t *testing.T) {
	g := MustFromEdges(5, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	vst := NewVisitor(5)
	n2 := vst.KNeighborhood(g, 0, Forward, 2)
	sort.Slice(n2, func(i, j int) bool { return n2[i] < n2[j] })
	if !reflect.DeepEqual(n2, []Vertex{0, 1, 2}) {
		t.Errorf("2-neighborhood of 0 = %v, want [0 1 2]", n2)
	}
	back := vst.KNeighborhood(g, 4, Backward, 1)
	sort.Slice(back, func(i, j int) bool { return back[i] < back[j] })
	if !reflect.DeepEqual(back, []Vertex{3, 4}) {
		t.Errorf("1-in-neighborhood of 4 = %v, want [3 4]", back)
	}
}

func TestVisitorEpochReuse(t *testing.T) {
	g := diamond(t)
	vst := NewVisitor(g.NumVertices())
	for i := 0; i < 1000; i++ {
		count := 0
		vst.BFS(g, 0, Forward, func(Vertex, int32) bool {
			count++
			return true
		})
		if count != 4 {
			t.Fatalf("iteration %d visited %d vertices, want 4", i, count)
		}
	}
}

func TestDistance(t *testing.T) {
	g := MustFromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	vst := NewVisitor(4)
	cases := []struct {
		u, v Vertex
		d    int32
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {3, 0, -1}, {1, 3, 2},
	}
	for _, c := range cases {
		if got := vst.Distance(g, c.u, c.v, Forward); got != c.d {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.u, c.v, got, c.d)
		}
	}
}

func TestBidirectionalMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		g := randomDAG(rng, 80, 200)
		vst := NewVisitor(g.NumVertices())
		bi := NewBiVisitor(g.NumVertices())
		for i := 0; i < 200; i++ {
			u := Vertex(rng.Intn(g.NumVertices()))
			v := Vertex(rng.Intn(g.NumVertices()))
			if got, want := bi.Reachable(g, u, v), vst.Reachable(g, u, v); got != want {
				t.Fatalf("bidirectional reach(%d,%d) = %v, BFS says %v", u, v, got, want)
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, orig, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 4 || g2.NumEdges() != 4 {
		t.Fatalf("round trip size mismatch: %v", g2)
	}
	_ = orig
}

func TestReadEdgeListCommentsAndSelfLoops(t *testing.T) {
	in := strings.NewReader("# header\n% another\n5 7\n7 5\n5 5\n\n9 5\n")
	g, orig, err := ReadEdgeList(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("n = %d, want 3 (5,7,9 densified)", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3 (self-loop dropped)", g.NumEdges())
	}
	if orig[0] != 5 || orig[1] != 7 || orig[2] != 9 {
		t.Errorf("orig = %v", orig)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Error("single-field line accepted")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric vertex accepted")
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond(t)
	s := ComputeStats(g)
	if s.Vertices != 4 || s.Edges != 4 || s.Roots != 1 || s.Sinks != 1 || s.Depth != 2 || !s.IsDAG {
		t.Errorf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	cyc := MustFromEdges(2, [][2]Vertex{{0, 1}, {1, 0}})
	if cs := ComputeStats(cyc); cs.IsDAG || cs.Depth != -1 {
		t.Errorf("cyclic stats = %+v", cs)
	}
}

// Property: SCC of a DAG yields n singleton components.
func TestSCCOnDAGProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 30, 60)
		_, k := SCC(g)
		return k == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: in-degree sum equals out-degree sum equals edge count.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDigraph(rng, 25, 70)
		sumOut, sumIn := 0, 0
		for v := 0; v < g.NumVertices(); v++ {
			sumOut += g.OutDegree(Vertex(v))
			sumIn += g.InDegree(Vertex(v))
		}
		return sumOut == g.NumEdges() && sumIn == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Validate accepts everything the builder produces.
func TestBuilderAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDigraph(rng, 20, 50)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
