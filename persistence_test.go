package reach

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func persistenceFixture(t testing.TB) (*Graph, int) {
	t.Helper()
	raw := gen.CitationDAG(500, 3, 0.5, 17)
	edges := make([][2]uint32, 0, raw.NumEdges()+3)
	raw.Edges(func(u, v graph.Vertex) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	// Add a cycle so the condensation map is non-trivial.
	n := raw.NumVertices()
	edges = append(edges, [2]uint32{uint32(n - 1), 0}, [2]uint32{0, uint32(n - 2)})
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, n
}

// TestSnapshotRoundTripAllMethods is the acceptance test for the
// universal snapshot format: every registered method round-trips through
// Save and both loaders (LoadBytes, the zero-copy decode mmap uses, and
// LoadFrom, which reads a stream into memory first) with identical
// answers on a randomized query set.
func TestSnapshotRoundTripAllMethods(t *testing.T) {
	g, n := persistenceFixture(t)
	for _, m := range Methods() {
		t.Run(string(m), func(t *testing.T) {
			built, err := Build(g, m, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := built.Save(&buf); err != nil {
				t.Fatal(err)
			}
			zero, err := LoadBytes(buf.Bytes())
			if err != nil {
				t.Fatalf("LoadBytes: %v", err)
			}
			stream, err := LoadFrom(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("LoadFrom: %v", err)
			}
			for _, loaded := range []*Oracle{zero, stream} {
				if loaded.Method() != string(m) {
					t.Fatalf("loaded method = %q, want %q", loaded.Method(), m)
				}
				if !loaded.Loaded() {
					t.Fatal("Loaded() = false for a snapshot-restored oracle")
				}
				if loaded.IndexSizeInts() != built.IndexSizeInts() {
					t.Fatalf("size changed across serialization: %d -> %d",
						built.IndexSizeInts(), loaded.IndexSizeInts())
				}
				if loaded.Graph().Fingerprint() != g.Fingerprint() {
					t.Fatal("restored graph has a different fingerprint")
				}
			}
			rng := rand.New(rand.NewSource(3))
			for q := 0; q < 2000; q++ {
				u := uint32(rng.Intn(n))
				v := uint32(rng.Intn(n))
				want := built.Reachable(u, v)
				if zero.Reachable(u, v) != want {
					t.Fatalf("zero-copy oracle disagrees on (%d,%d)", u, v)
				}
				if stream.Reachable(u, v) != want {
					t.Fatalf("stream oracle disagrees on (%d,%d)", u, v)
				}
			}
		})
	}
}

// TestSnapshotFileRoundTrip exercises the real file path: SaveFile then
// the mmap-backed Load, including Close.
func TestSnapshotFileRoundTrip(t *testing.T) {
	g, n := persistenceFixture(t)
	built, err := Build(g, MethodDL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dl.snap")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for q := 0; q < 2000; q++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if built.Reachable(u, v) != loaded.Reachable(u, v) {
			t.Fatalf("mmap-loaded oracle disagrees on (%d,%d)", u, v)
		}
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
}

// TestSnapshotCarriesOrigIDs proves a snapshot saved from a parsed
// edge-list graph restores the original vertex IDs, which is what lets
// reachd start from a snapshot alone.
func TestSnapshotCarriesOrigIDs(t *testing.T) {
	src := "100 200\n200 300\n300 100\n400 500\n"
	g, orig, err := ReadGraph(bytes.NewReader([]byte(src)))
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(g, MethodDL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Graph().OrigIDs()
	if len(got) != len(orig) {
		t.Fatalf("restored %d IDs, want %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("ID %d restored as %d, want %d", i, got[i], orig[i])
		}
	}
}

// TestConcurrentQueries verifies that labeling-based oracles are safe for
// parallel read-only queries (they hold no mutable query state, unlike the
// online-search methods).
func TestConcurrentQueries(t *testing.T) {
	raw := gen.TreeDAG(2000, 0.1, 0, 23)
	edges := make([][2]uint32, 0, raw.NumEdges())
	raw.Edges(func(u, v graph.Vertex) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	g, err := NewGraph(raw.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(g, MethodDL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth single-threaded first.
	vst := graph.NewVisitor(raw.NumVertices())
	type q struct {
		u, v uint32
		want bool
	}
	rng := rand.New(rand.NewSource(4))
	queries := make([]q, 4000)
	for i := range queries {
		u := uint32(rng.Intn(raw.NumVertices()))
		v := uint32(rng.Intn(raw.NumVertices()))
		queries[i] = q{u, v, vst.Reachable(raw, graph.Vertex(u), graph.Vertex(v))}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := shard; i < len(queries); i += 8 {
				if o.Reachable(queries[i].u, queries[i].v) != queries[i].want {
					select {
					case errCh <- nil:
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-errCh:
		t.Fatal("concurrent query returned a wrong answer")
	default:
	}
}
