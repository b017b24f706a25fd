package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses the whitespace-separated edge-list format used by the
// reachability literature's dataset dumps:
//
//	# comment lines start with '#' or '%'
//	<from> <to>
//
// Vertex IDs may be arbitrary non-negative integers; they are densified in
// first-appearance order. Returns the graph and the original IDs indexed by
// dense vertex.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ids := make(map[int64]Vertex)
	var orig []int64
	intern := func(raw int64) Vertex {
		if v, ok := ids[raw]; ok {
			return v
		}
		v := Vertex(len(orig))
		ids[raw] = v
		orig = append(orig, raw)
		return v
	}
	var edges [][2]Vertex
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want two fields, got %q", lineNo, line)
		}
		from, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad from-vertex: %v", lineNo, err)
		}
		to, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad to-vertex: %v", lineNo, err)
		}
		u, v := intern(from), intern(to)
		if u == v {
			continue // drop self-loops on ingest
		}
		edges = append(edges, [2]Vertex{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	g, err := FromEdges(len(orig), edges)
	if err != nil {
		return nil, nil, err
	}
	return g, orig, nil
}

// WriteEdgeList writes g in the plain "<from> <to>" text format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var writeErr error
	g.Edges(func(u, v Vertex) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}
