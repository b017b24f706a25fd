// Ablation benchmarks for three design choices of the paper's oracles:
//
//   - DL's vertex order: the paper's degree-product rank vs topological,
//     random, and worst-case reverse order (§5.2 argues the rank function
//     drives label compactness).
//   - HL's locality threshold ε ∈ {1, 2, 3} (ε = 1 being TF-label's
//     hierarchy, ε = 2 the paper's default).
//   - Label-set representation: sorted-vector intersection (merge, or
//     gallop when one label is much shorter) vs hash-set probing — the
//     §1 claim that sorted vectors eliminate the reachability oracle's
//     historical query-performance gap.
package reach_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/order"
	"repro/internal/workload"
)

// BenchmarkAblationDLOrder builds DL under each order strategy and
// reports build time plus resulting label size.
func BenchmarkAblationDLOrder(b *testing.B) {
	g := benchGraph(b, "arxiv", 8000)
	for _, s := range []order.Strategy{
		order.DegreeProduct, order.Topo, order.RandomOrder, order.ReverseDegreeProduct,
	} {
		s := s
		b.Run(string(s), func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				dl, err := core.BuildDL(g, core.DLOptions{Strategy: s, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				size = dl.SizeInts()
			}
			b.ReportMetric(float64(size), "label-ints")
		})
	}
}

// TestAblationDLOrderCompactness asserts the paper's qualitative claim:
// the degree-product rank yields smaller labels than a random or reverse
// order on a citation graph.
func TestAblationDLOrderCompactness(t *testing.T) {
	spec, _ := dataset.ByName("arxiv")
	g := spec.BuildAt(4000)
	sizes := map[order.Strategy]int64{}
	for _, s := range []order.Strategy{order.DegreeProduct, order.RandomOrder, order.ReverseDegreeProduct} {
		dl, err := core.BuildDL(g, core.DLOptions{Strategy: s, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sizes[s] = dl.SizeInts()
	}
	if sizes[order.DegreeProduct] >= sizes[order.RandomOrder] {
		t.Errorf("degree-product labels (%d) not smaller than random order (%d)",
			sizes[order.DegreeProduct], sizes[order.RandomOrder])
	}
	if sizes[order.DegreeProduct] >= sizes[order.ReverseDegreeProduct] {
		t.Errorf("degree-product labels (%d) not smaller than reverse order (%d)",
			sizes[order.DegreeProduct], sizes[order.ReverseDegreeProduct])
	}
}

// BenchmarkAblationHLEpsilon builds HL with ε ∈ {1, 2, 3}.
func BenchmarkAblationHLEpsilon(b *testing.B) {
	g := benchGraph(b, "agrocyc", 8000)
	for _, eps := range []int{1, 2, 3} {
		eps := eps
		b.Run(map[int]string{1: "eps1-TF", 2: "eps2-paper", 3: "eps3"}[eps], func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				hl, err := core.BuildHL(g, core.HLOptions{Epsilon: eps, CoreLimit: 256})
				if err != nil {
					b.Fatal(err)
				}
				size = hl.SizeInts()
			}
			b.ReportMetric(float64(size), "label-ints")
		})
	}
}

// mapLabeling is the §1 strawman: hop sets as hash sets.
type mapLabeling struct {
	out []map[uint32]struct{}
	in  []map[uint32]struct{}
}

func (m *mapLabeling) Reachable(u, v uint32) bool {
	if u == v {
		return true
	}
	a, b := m.out[u], m.in[v]
	if len(b) < len(a) {
		a, b = b, a
	}
	for h := range a {
		if _, ok := b[h]; ok {
			return true
		}
	}
	return false
}

// BenchmarkAblationLabelRepresentation compares query cost of the same DL
// labeling stored as sorted vectors (the paper's fix) vs hash sets (the
// historical implementation the paper blames for the oracle's bad
// reputation).
func BenchmarkAblationLabelRepresentation(b *testing.B) {
	g := benchGraph(b, "arxiv", 8000)
	dl, err := core.BuildDL(g, core.DLOptions{})
	if err != nil {
		b.Fatal(err)
	}
	l := dl.Labeling()
	ml := &mapLabeling{
		out: make([]map[uint32]struct{}, g.NumVertices()),
		in:  make([]map[uint32]struct{}, g.NumVertices()),
	}
	for v := 0; v < g.NumVertices(); v++ {
		ml.out[v] = make(map[uint32]struct{}, len(l.Out(uint32(v))))
		for _, h := range l.Out(uint32(v)) {
			ml.out[v][h] = struct{}{}
		}
		ml.in[v] = make(map[uint32]struct{}, len(l.In(uint32(v))))
		for _, h := range l.In(uint32(v)) {
			ml.in[v][h] = struct{}{}
		}
	}
	wl, err := workload.Generate(g, workload.Equal, 10_000, 5)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("sorted-vector", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			q := i % wl.Len()
			if dl.Reachable(wl.U[q], wl.V[q]) {
				sink++
			}
		}
		benchSink = sink
	})
	b.Run("hash-set", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			q := i % wl.Len()
			if ml.Reachable(wl.U[q], wl.V[q]) {
				sink++
			}
		}
		benchSink = sink
	})

	// Sanity: both representations agree.
	for q := 0; q < 200; q++ {
		if dl.Reachable(wl.U[q], wl.V[q]) != ml.Reachable(wl.U[q], wl.V[q]) {
			b.Fatal("representations disagree")
		}
	}
}
