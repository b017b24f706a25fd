package main

import (
	"fmt"
	"math/rand"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Input geometry shared by every workload.
const (
	graphVertices = 20000
	graphAvgRefs  = 4
	graphPref     = 0.5

	batchPairs    = 4096    // fleet-bulk batch size
	smallBatch    = 32      // fleet-interactive batch size
	zipfUniverse  = 1 << 18 // distinct pairs fleet-interactive draws from
	zipfS         = 1.07
	maxWalkSteps  = 16
	checkUniform  = 1024 // check-set pairs from the workload's distribution
	checkPositive = 256  // extra walk positives in every check set
)

// inputs is everything a run derives from its seed before set-up: the
// graph, the workload's request generators and the answer check set.
type inputs struct {
	seed int64
	dag  *graph.Graph
	g    *reach.Graph

	// universe is fleet-interactive's Zipf universe, most popular first.
	universe [][2]uint32

	check []checkPair
}

type checkPair struct {
	u, v uint32
	want bool
}

// newInputs builds the graph and the named workload's inputs from seed.
func newInputs(w string, seed int64) (*inputs, error) {
	dag := gen.CitationDAG(graphVertices, graphAvgRefs, graphPref, seed)
	g, err := reach.NewGraph(dag.NumVertices(), dag.EdgeList())
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	in := &inputs{seed: seed, dag: dag, g: g}
	if w == "fleet-interactive" {
		in.universe = distinctPairs(dag, streamRNG(seed, "universe", 0), zipfUniverse)
	}
	in.check = in.checkSet(w)
	return in, nil
}

// streamRNG derives an independent deterministic generator for one
// consumer (a client, the check set, a replay) from the run seed.
func streamRNG(seed int64, name string, id int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)
	for _, c := range name {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// walkPositive returns a pair reachable by construction: a random
// source with at least one successor, followed along 1..maxWalkSteps
// random out-edges (stopping early at a sink).
func walkPositive(dag *graph.Graph, rng *rand.Rand) [2]uint32 {
	n := dag.NumVertices()
	for {
		s := graph.Vertex(rng.Intn(n))
		if dag.OutDegree(s) == 0 {
			continue
		}
		t := s
		steps := 1 + rng.Intn(maxWalkSteps)
		for i := 0; i < steps; i++ {
			out := dag.Out(t)
			if len(out) == 0 {
				break
			}
			t = graph.Vertex(out[rng.Intn(len(out))])
		}
		return [2]uint32{uint32(s), uint32(t)}
	}
}

// uniformPair returns a uniform pair of distinct vertices.
func uniformPair(n int, rng *rand.Rand) [2]uint32 {
	for {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			return [2]uint32{uint32(u), uint32(v)}
		}
	}
}

// equalPair is the paper's "equal" mix: a walk positive or a uniform
// pair with equal probability.
func equalPair(dag *graph.Graph, rng *rand.Rand) [2]uint32 {
	if rng.Intn(2) == 0 {
		return walkPositive(dag, rng)
	}
	return uniformPair(dag.NumVertices(), rng)
}

// distinctPairs draws n distinct equal-mix pairs.
func distinctPairs(dag *graph.Graph, rng *rand.Rand, n int) [][2]uint32 {
	seen := make(map[[2]uint32]bool, n)
	out := make([][2]uint32, 0, n)
	for len(out) < n {
		p := equalPair(dag, rng)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// pairSource is one client's deterministic request stream.
type pairSource struct {
	in   *inputs
	rng  *rand.Rand
	zipf *rand.Zipf
}

// newSource returns consumer id's stream for workload w. Clients use
// ids 0 and 1; the check set and the replays use their own ids, so
// their pairs are fresh draws from the same distribution.
func (in *inputs) newSource(w string, id int) *pairSource {
	src := &pairSource{in: in, rng: streamRNG(in.seed, w, id)}
	if in.universe != nil {
		src.zipf = rand.NewZipf(src.rng, zipfS, 1, uint64(len(in.universe)-1))
	}
	return src
}

// next returns the stream's next pair.
func (s *pairSource) next() [2]uint32 {
	if s.zipf != nil {
		return s.in.universe[s.zipf.Uint64()]
	}
	return uniformPair(s.in.dag.NumVertices(), s.rng)
}

// fill overwrites pairs with the stream's next len(pairs) pairs.
func (s *pairSource) fill(pairs [][2]uint32) {
	for i := range pairs {
		pairs[i] = s.next()
	}
}

// checkSet draws the workload's check pairs plus walk positives and
// answers them by BFS over the generated DAG, which shares no code with
// the DL index under test.
func (in *inputs) checkSet(w string) []checkPair {
	src := in.newSource(w, checkID)
	pairs := make([][2]uint32, checkUniform, checkUniform+checkPositive)
	src.fill(pairs)
	rng := streamRNG(in.seed, "check-positive", 0)
	for i := 0; i < checkPositive; i++ {
		pairs = append(pairs, walkPositive(in.dag, rng))
	}
	truth := bfsAnswers(in.dag, pairs)
	out := make([]checkPair, len(pairs))
	for i, p := range pairs {
		out[i] = checkPair{u: p[0], v: p[1], want: truth[i]}
	}
	return out
}

// Consumer ids beyond the two clients.
const (
	checkID  = 100
	replayID = 101
)

// bfsAnswers answers every pair by breadth-first search from its
// source, one search per distinct source.
func bfsAnswers(dag *graph.Graph, pairs [][2]uint32) []bool {
	bySrc := make(map[uint32][]int)
	for i, p := range pairs {
		bySrc[p[0]] = append(bySrc[p[0]], i)
	}
	out := make([]bool, len(pairs))
	mark := make([]int32, dag.NumVertices())
	var queue []uint32
	epoch := int32(0)
	for s, idx := range bySrc {
		epoch++
		mark[s] = epoch
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range dag.Out(graph.Vertex(u)) {
				if mark[v] != epoch {
					mark[v] = epoch
					queue = append(queue, v)
				}
			}
		}
		for _, i := range idx {
			out[i] = mark[pairs[i][1]] == epoch
		}
	}
	return out
}
