// Package pathtree implements the "PT" baseline: transitive-closure
// compression over a path decomposition of the DAG, in the lineage of
// Jagadish's chain cover (TODS 1990) and Jin et al.'s Path-Tree
// (SIGMOD 2008), which generalizes it.
//
// The DAG is greedily decomposed into vertex-disjoint paths; because a
// path's edges all point forward, "u reaches position i of path P" implies
// u reaches every later position too. TC(u) therefore compresses to one
// (path, minimum position) pair per reachable path, built bottom-up in
// reverse topological order by k-way merging successor lists. A query is a
// binary search for path(v) in u's list plus one position comparison —
// the O(log #paths) lookup that makes PT the fastest method on the paper's
// small graphs (Table 2), while the per-vertex lists of up to #paths
// entries are exactly what makes it run out of memory on the large ones
// (Tables 5-7).
//
// Substitution note: the original Path-Tree also
// overlays a spanning tree on the path-level graph to merge entries of
// tree-related paths. We keep the decomposition + compressed-closure core,
// which preserves the query/size behaviour the evaluation measures.
package pathtree

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Options bounds construction so the harness can reproduce the paper's
// "—" entries for PT on large graphs.
type Options struct {
	// MaxEntries aborts construction if the total number of (path, pos)
	// entries exceeds this bound (0 = 400 million, ≈ 3.2 GB).
	MaxEntries int64
}

func (o Options) withDefaults() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = 400_000_000
	}
	return o
}

// ErrTooLarge reports that the compressed closure exceeded the memory
// budget — the equivalent of the paper's "—" entries for PT.
var ErrTooLarge = fmt.Errorf("pathtree: compressed closure exceeds budget")

// PathTree is the path-decomposition reachability index.
type PathTree struct {
	// pathOf[v], posOf[v]: v's path ID and position along it.
	pathOf []uint32
	posOf  []uint32
	// CSR of per-vertex reach lists, sorted by path ID.
	off      []uint32
	paths    []uint32
	minPo    []uint32
	numPaths int
}

// Build constructs the PT index for DAG g.
func Build(g *graph.Graph, opts Options) (*PathTree, error) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	order, ok := graph.TopoOrder(g)
	if !ok {
		return nil, fmt.Errorf("pathtree: input must be a DAG")
	}

	pt := &PathTree{pathOf: make([]uint32, n), posOf: make([]uint32, n)}
	pt.decompose(g, order)

	// entry is one (path, minPos) element of a reach list.
	type entry struct {
		path, pos uint32
	}
	lists := make([][]entry, n)
	var total int64

	// Reverse topological order: successors' lists are final first.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		// Merge successor lists plus v's own (path, pos).
		merged := map[uint32]uint32{pt.pathOf[v]: pt.posOf[v]}
		for _, w := range g.Out(v) {
			for _, e := range lists[w] {
				if cur, ok := merged[e.path]; !ok || e.pos < cur {
					merged[e.path] = e.pos
				}
			}
		}
		list := make([]entry, 0, len(merged))
		for p, pos := range merged {
			list = append(list, entry{path: p, pos: pos})
		}
		sort.Slice(list, func(a, b int) bool { return list[a].path < list[b].path })
		lists[v] = list
		total += int64(len(list))
		if total > opts.MaxEntries {
			return nil, ErrTooLarge
		}
	}

	// Freeze to CSR.
	pt.off = make([]uint32, n+1)
	pt.paths = make([]uint32, 0, total)
	pt.minPo = make([]uint32, 0, total)
	for v := 0; v < n; v++ {
		for _, e := range lists[v] {
			pt.paths = append(pt.paths, e.path)
			pt.minPo = append(pt.minPo, e.pos)
		}
		pt.off[v+1] = uint32(len(pt.paths))
		lists[v] = nil
	}
	return pt, nil
}

// decompose greedily splits the DAG into vertex-disjoint paths: process
// vertices in topological order; each unassigned vertex starts a path that
// is extended along unassigned out-neighbors (preferring the neighbor with
// the fewest unassigned in-edges, which empirically yields fewer paths).
func (pt *PathTree) decompose(g *graph.Graph, order []graph.Vertex) {
	n := g.NumVertices()
	assigned := make([]bool, n)
	for i := range pt.pathOf {
		pt.pathOf[i] = ^uint32(0)
	}
	nextPath := uint32(0)
	for _, start := range order {
		if assigned[start] {
			continue
		}
		pos := uint32(0)
		v := start
		for {
			assigned[v] = true
			pt.pathOf[v] = nextPath
			pt.posOf[v] = pos
			pos++
			// Extend: pick the unassigned out-neighbor with minimal
			// in-degree (a cheap head-off against stranding vertices that
			// only this path could absorb).
			next := graph.Vertex(0)
			found := false
			bestDeg := 1 << 30
			for _, w := range g.Out(v) {
				if assigned[w] {
					continue
				}
				if d := g.InDegree(w); d < bestDeg {
					bestDeg = d
					next = w
					found = true
				}
			}
			if !found {
				break
			}
			v = next
		}
		nextPath++
	}
	pt.numPaths = int(nextPath)
}

// Name implements index.Index.
func (pt *PathTree) Name() string { return "PT" }

// Reachable reports u -> v by binary search for v's path in u's list.
func (pt *PathTree) Reachable(u, v uint32) bool {
	if u == v {
		return true
	}
	p := pt.pathOf[v]
	lo, hi := pt.off[u], pt.off[u+1]
	span := pt.paths[lo:hi]
	i := sort.Search(len(span), func(i int) bool { return span[i] >= p })
	if i >= len(span) || span[i] != p {
		return false
	}
	return pt.minPo[lo+uint32(i)] <= pt.posOf[v]
}

// NumPaths returns the size of the path decomposition.
func (pt *PathTree) NumPaths() int { return pt.numPaths }

// SizeInts counts two integers per reach entry plus the per-vertex
// path/position arrays.
func (pt *PathTree) SizeInts() int64 {
	return int64(len(pt.paths))*2 + int64(len(pt.pathOf))*2
}
