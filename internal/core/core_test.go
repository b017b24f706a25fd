package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hoplabel"
	"repro/internal/order"
	"repro/internal/tc"
)

// families returns a representative small DAG per structural family.
func families(seed int64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"uniform":  gen.UniformDAG(120, 320, seed),
		"tree":     gen.TreeDAG(120, 0.15, 0, seed),
		"citation": gen.CitationDAG(120, 3, 0.5, seed),
		"chain":    gen.ChainDAG(120, 5, 0.2, seed),
		"xml":      gen.XMLDAG(120, 4, 0.2, seed),
		"forest":   gen.ForestDAG(120, 2, seed),
		"powerlaw": gen.PowerLawDAG(120, 320, 1.4, seed),
	}
}

// oracle abstracts HL/DL for shared exhaustive checking.
type oracle interface {
	Reachable(u, v uint32) bool
	Name() string
	SizeInts() int64
}

// checkExhaustive compares an oracle against full-BFS ground truth on every
// ordered pair.
func checkExhaustive(t *testing.T, tag string, g *graph.Graph, o oracle) {
	t.Helper()
	closure := tc.Closure(g)
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := closure[u].Get(v)
			if got := o.Reachable(uint32(u), uint32(v)); got != want {
				t.Fatalf("%s/%s: Reachable(%d,%d) = %v, want %v", tag, o.Name(), u, v, got, want)
			}
		}
	}
}

func TestDLCompleteAcrossFamilies(t *testing.T) {
	for name, g := range families(17) {
		dl, err := BuildDL(g, DLOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkExhaustive(t, name, g, dl)
	}
}

func TestHLCompleteAcrossFamilies(t *testing.T) {
	for name, g := range families(23) {
		hl, err := BuildHL(g, HLOptions{Epsilon: 2, CoreLimit: 16})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkExhaustive(t, name, g, hl)
	}
}

func TestHLEpsilonVariants(t *testing.T) {
	g := gen.CitationDAG(150, 3, 0.5, 31)
	for _, eps := range []int{1, 2, 3} {
		hl, err := BuildHL(g, HLOptions{Epsilon: eps, CoreLimit: 20})
		if err != nil {
			t.Fatalf("eps=%d: %v", eps, err)
		}
		checkExhaustive(t, "citation", g, hl)
		if hl.Levels() < 2 {
			t.Errorf("eps=%d: no decomposition (%d levels)", eps, hl.Levels())
		}
	}
}

func TestDLOrderStrategiesStillComplete(t *testing.T) {
	g := gen.UniformDAG(100, 260, 41)
	for _, s := range []order.Strategy{order.DegreeProduct, order.Topo, order.RandomOrder, order.ReverseDegreeProduct} {
		dl, err := BuildDL(g, DLOptions{Strategy: s, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		checkExhaustive(t, string(s), g, dl)
	}
}

func TestDLRejectsCycle(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]graph.Vertex{{0, 1}, {1, 0}})
	if _, err := BuildDL(g, DLOptions{}); err == nil {
		t.Fatal("DL accepted a cyclic graph")
	}
	if _, err := BuildHL(g, HLOptions{}); err == nil {
		t.Fatal("HL accepted a cyclic graph")
	}
}

func TestDLRejectsBadOrder(t *testing.T) {
	g := gen.UniformDAG(10, 20, 1)
	if _, err := BuildDL(g, DLOptions{Order: []graph.Vertex{0, 1}}); err == nil {
		t.Fatal("short order accepted")
	}
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	if dl, err := BuildDL(empty, DLOptions{}); err != nil || dl.SizeInts() != 0 {
		t.Fatalf("empty DL: %v", err)
	}
	if hl, err := BuildHL(empty, HLOptions{}); err != nil || hl.SizeInts() != 0 {
		t.Fatalf("empty HL: %v", err)
	}
	single := graph.NewBuilder(1).MustBuild()
	dl, err := BuildDL(single, DLOptions{})
	if err != nil || !dl.Reachable(0, 0) {
		t.Fatal("singleton DL broken")
	}
	hl, err := BuildHL(single, HLOptions{})
	if err != nil || !hl.Reachable(0, 0) {
		t.Fatal("singleton HL broken")
	}
}

// TestDLNonRedundant verifies Theorem 4: removing any single hop from any
// label breaks completeness.
func TestDLNonRedundant(t *testing.T) {
	g := gen.UniformDAG(40, 90, 53)
	dl, err := BuildDL(g, DLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := dl.Labeling()
	closure := tc.Closure(g)
	n := g.NumVertices()

	// isCompleteWithout checks completeness when hop `hop` is hidden from
	// Lout(skipV) (dir=0) or Lin(skipV) (dir=1).
	filtered := func(s []uint32, hop uint32) []uint32 {
		out := make([]uint32, 0, len(s)-1)
		for _, x := range s {
			if x != hop {
				out = append(out, x)
			}
		}
		return out
	}
	// Completeness here includes self pairs (u == v): the labeling covers
	// them via each vertex's own hop (Reachable's u == v shortcut is just an
	// optimization), and Theorem 4's uniquely-covered pair for a vertex's
	// own hop in its own label IS the self pair.
	completeWithout := func(skipV uint32, hop uint32, dir int) bool {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if !closure[u].Get(v) {
					continue
				}
				lo, li := l.Out(uint32(u)), l.In(uint32(v))
				if dir == 0 && uint32(u) == skipV {
					lo = filtered(lo, hop)
				}
				if dir == 1 && uint32(v) == skipV {
					li = filtered(li, hop)
				}
				if !hoplabel.IntersectsSorted(lo, li) {
					return false
				}
			}
		}
		return true
	}

	// Check a sample of (vertex, hop) removals in both directions; each must
	// break completeness. (Exhaustive removal is O(n^4); sampling keeps the
	// test fast while still exercising Theorem 4 broadly.)
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for checked < 60 {
		v := uint32(rng.Intn(n))
		dir := rng.Intn(2)
		var lab []uint32
		if dir == 0 {
			lab = l.Out(v)
		} else {
			lab = l.In(v)
		}
		if len(lab) == 0 {
			continue
		}
		hop := lab[rng.Intn(len(lab))]
		if completeWithout(v, hop, dir) {
			t.Fatalf("hop %d in label(dir=%d) of vertex %d is redundant", hop, dir, v)
		}
		checked++
	}
}

// TestDLSmallerThanHL reflects the paper's finding that DL labels are
// consistently compact — allow slack, but DL should never be drastically
// larger than HL on these families.
func TestDLCompactness(t *testing.T) {
	for name, g := range families(71) {
		dl, err := BuildDL(g, DLOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hl, err := BuildHL(g, HLOptions{CoreLimit: 16})
		if err != nil {
			t.Fatal(err)
		}
		if dl.SizeInts() > 2*hl.SizeInts()+int64(4*g.NumVertices()) {
			t.Errorf("%s: DL size %d far exceeds HL size %d", name, dl.SizeInts(), hl.SizeInts())
		}
	}
}

func TestDLDeterministic(t *testing.T) {
	g := gen.CitationDAG(200, 3, 0.5, 13)
	a, _ := BuildDL(g, DLOptions{})
	b, _ := BuildDL(g, DLOptions{})
	if a.SizeInts() != b.SizeInts() {
		t.Fatal("DL not deterministic")
	}
	la, lb := a.Labeling(), b.Labeling()
	for v := 0; v < g.NumVertices(); v++ {
		ao, bo := la.Out(uint32(v)), lb.Out(uint32(v))
		if len(ao) != len(bo) {
			t.Fatal("label sizes differ between runs")
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatal("labels differ between runs")
			}
		}
	}
}

// TestDLLabelsPinned hashes DL's four CSR arrays, in the order Encode
// writes them, on a fixed citation graph whose labels reach 171
// entries, and compares the hash with the one recorded when every
// pruning check was a plain merge. The galloping check must build the
// same labels, so the index size and the snapshot bytes cannot move;
// TestDLDeterministic only compares two builds of the same code.
func TestDLLabelsPinned(t *testing.T) {
	const want = 0xe7d14573ba2312fc
	dl, err := BuildDL(gen.CitationDAG(4000, 4, 0.5, 7), DLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := dl.Labeling()
	outOff, inOff := []uint32{0}, []uint32{0}
	var out, in []uint32
	for v := uint32(0); v < uint32(l.NumVertices()); v++ {
		out = append(out, l.Out(v)...)
		in = append(in, l.In(v)...)
		outOff = append(outOff, uint32(len(out)))
		inOff = append(inOff, uint32(len(in)))
	}
	h := fnv.New64a()
	for _, arr := range [][]uint32{outOff, out, inOff, in} {
		binary.Write(h, binary.LittleEndian, arr)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("DL labels hash to %#x (%d ints), want %#x: the build no longer produces the same labels",
			got, l.SizeInts(), uint64(want))
	}
}

func TestDLRankOf(t *testing.T) {
	g := gen.UniformDAG(50, 120, 3)
	dl, _ := BuildDL(g, DLOptions{})
	seen := make([]bool, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		r := dl.RankOf(uint32(v))
		if r < 0 || int(r) >= g.NumVertices() || seen[r] {
			t.Fatalf("RankOf(%d) = %d invalid", v, r)
		}
		seen[r] = true
	}
}

func TestHLReportsStructure(t *testing.T) {
	g := gen.TreeDAG(2000, 0.1, 0, 5)
	hl, err := BuildHL(g, HLOptions{CoreLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if hl.Levels() < 2 {
		t.Errorf("expected a real hierarchy, got %d levels", hl.Levels())
	}
	if hl.CoreSize() >= g.NumVertices() {
		t.Errorf("core size %d did not shrink", hl.CoreSize())
	}
	if hl.Name() != "HL" {
		t.Errorf("Name = %q", hl.Name())
	}
}

// Property: both oracles agree with BFS on random pairs over random DAGs.
func TestOraclesAgreeWithBFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(80)
		g := gen.UniformDAG(n, n*3, seed)
		dl, err := BuildDL(g, DLOptions{})
		if err != nil {
			return false
		}
		hl, err := BuildHL(g, HLOptions{CoreLimit: 10})
		if err != nil {
			return false
		}
		vst := graph.NewVisitor(n)
		for q := 0; q < 150; q++ {
			u := graph.Vertex(rng.Intn(n))
			v := graph.Vertex(rng.Intn(n))
			want := vst.Reachable(g, u, v)
			if dl.Reachable(uint32(u), uint32(v)) != want {
				return false
			}
			if hl.Reachable(uint32(u), uint32(v)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSelfHopInvariant: every vertex can answer reachability to itself via
// its own labels (the paper's "each vertex records itself" convention holds
// for HL; DL guarantees it via the distribution of the vertex's own hop).
func TestSelfHopInvariant(t *testing.T) {
	g := gen.XMLDAG(200, 5, 0.2, 2)
	dl, _ := BuildDL(g, DLOptions{})
	hl, _ := BuildHL(g, HLOptions{CoreLimit: 16})
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if !dl.Reachable(v, v) || !hl.Reachable(v, v) {
			t.Fatalf("self reachability broken at %d", v)
		}
	}
	// HL labels each vertex with itself explicitly.
	l := hl.Labeling()
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		found := false
		for _, h := range l.Out(v) {
			if h == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("HL Lout(%d) missing self hop: %v", v, l.Out(v))
		}
	}
}
