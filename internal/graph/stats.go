package graph

import "fmt"

// Stats summarizes structural properties of a graph; the benchmark harness
// prints these for the paper's Table 1 dataset inventory.
type Stats struct {
	Vertices     int
	Edges        int
	Roots        int
	Sinks        int
	MaxOutDegree int
	MaxInDegree  int
	AvgDegree    float64
	// Depth is the longest path length (only meaningful for DAGs; -1 if the
	// graph is cyclic).
	Depth int
	IsDAG bool
}

// ComputeStats gathers Stats for g in O(n + m).
func ComputeStats(g *Graph) Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	for v := 0; v < g.NumVertices(); v++ {
		od, id := g.OutDegree(Vertex(v)), g.InDegree(Vertex(v))
		if od == 0 {
			s.Sinks++
		}
		if id == 0 {
			s.Roots++
		}
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if id > s.MaxInDegree {
			s.MaxInDegree = id
		}
	}
	if g.NumVertices() > 0 {
		s.AvgDegree = float64(g.NumEdges()) / float64(g.NumVertices())
	}
	if _, ok := TopoOrder(g); ok {
		s.IsDAG = true
		_, maxLevel := TopoLevels(g)
		s.Depth = int(maxLevel)
	} else {
		s.Depth = -1
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d roots=%d sinks=%d depth=%d maxOut=%d maxIn=%d avgDeg=%.2f dag=%v",
		s.Vertices, s.Edges, s.Roots, s.Sinks, s.Depth, s.MaxOutDegree, s.MaxInDegree, s.AvgDegree, s.IsDAG)
}
