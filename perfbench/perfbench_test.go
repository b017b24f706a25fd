package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wireproto"
)

// draw returns the first n pairs of each client's stream.
func draw(in *inputs, w string, n int) [][][2]uint32 {
	var out [][][2]uint32
	for c := 0; c < clients; c++ {
		src := in.newSource(w, c)
		ps := make([][2]uint32, n)
		src.fill(ps)
		out = append(out, ps)
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for w := range workloads {
		a, err := newInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newInputs(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.dag.EdgeList(), b.dag.EdgeList()) {
			t.Errorf("%s: same seed built different graphs", w)
		}
		sa, sb, sc := draw(a, w, 5000), draw(b, w, 5000), draw(c, w, 5000)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: same seed gave different request streams", w)
		}
		if reflect.DeepEqual(sa, sc) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w)
		}
		if reflect.DeepEqual(sa[0], sa[1]) {
			t.Errorf("%s: both clients send the same stream", w)
		}
		if !reflect.DeepEqual(a.check, b.check) {
			t.Errorf("%s: same seed gave different check sets", w)
		}
	}
}

func TestWalkPositivesAreBFSReachable(t *testing.T) {
	dag := gen.CitationDAG(graphVertices, graphAvgRefs, graphPref, 3)
	rng := streamRNG(3, "test", 0)
	pairs := make([][2]uint32, 2000)
	for i := range pairs {
		pairs[i] = walkPositive(dag, rng)
		if pairs[i][0] == pairs[i][1] {
			t.Fatalf("walk %d ends where it starts: %v", i, pairs[i])
		}
	}
	for i, ok := range bfsAnswers(dag, pairs) {
		if !ok {
			t.Fatalf("walk positive %v is not reachable by BFS", pairs[i])
		}
	}
}

// TestBFSAnswersMatchClosure checks the ground truth itself against a
// transitive closure computed by depth-first search.
func TestBFSAnswersMatchClosure(t *testing.T) {
	dag := gen.UniformDAG(150, 400, 5)
	n := dag.NumVertices()
	reach := make([][]bool, n)
	var dfs func(root, u uint32)
	dfs = func(root, u uint32) {
		for _, v := range dag.Out(graph.Vertex(u)) {
			if !reach[root][v] {
				reach[root][v] = true
				dfs(root, v)
			}
		}
	}
	var pairs [][2]uint32
	for u := 0; u < n; u++ {
		reach[u] = make([]bool, n)
		reach[u][u] = true
		dfs(uint32(u), uint32(u))
		for v := 0; v < n; v++ {
			pairs = append(pairs, [2]uint32{uint32(u), uint32(v)})
		}
	}
	got := bfsAnswers(dag, pairs)
	for i, p := range pairs {
		if got[i] != reach[p[0]][p[1]] {
			t.Fatalf("bfsAnswers(%v) = %v, closure says %v", p, got[i], reach[p[0]][p[1]])
		}
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(name, trace string, lo, hi int) span {
	return span{Name: name, Trace: trace, Start: at(lo), End: at(hi), Parent: -1}
}

func TestSelfTime(t *testing.T) {
	parent := sp(spanRouter, "t", 0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp("", "", 10, 20), sp("", "", 50, 60)}, 80},
		{"overlapping", []span{sp("", "", 10, 30), sp("", "", 20, 40)}, 70},
		{"nested", []span{sp("", "", 10, 50), sp("", "", 20, 30)}, 60},
		{"sticking out both ends", []span{sp("", "", -5, 5), sp("", "", 90, 120)}, 85},
		{"mixed", []span{sp("", "", 90, 120), sp("", "", 20, 40), sp("", "", -5, 5), sp("", "", 10, 30)}, 55},
		{"covering", []span{sp("", "", -10, 200)}, 0},
		{"outside", []span{sp("", "", 150, 200)}, 100},
	} {
		if got := selfTime(parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", tc.name, got, tc.want)
		}
	}
}

func TestLink(t *testing.T) {
	spans := []span{
		sp(spanReplicaMux, "a", 20, 40),
		sp(spanClient, "a", 0, 100),
		sp(spanRouter, "a", 10, 90),
		sp(spanReplicaMux, "a", 30, 60),
		sp(spanClient, "b", 0, 10),
		sp(spanReplicaHTP, "b", 2, 8),
		sp(spanReplicaHTP, "", 2, 8), // a health probe: no trace
	}
	children := link(spans)
	wantParent := []int{2, -1, 1, 2, -1, -1, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s %q): parent %d, want %d", i, s.Name, s.Trace, s.Parent, wantParent[i])
		}
	}
	if !reflect.DeepEqual(children[2], []int{0, 3}) || !reflect.DeepEqual(children[1], []int{2}) {
		t.Errorf("children = %v", children)
	}
}

// TestFrameScanner feeds a handshake and three enveloped frames, cut
// into every chunk size from 1 to 40 bytes, and checks that each frame
// after the handshake is reported once with its stream and trace IDs.
func TestFrameScanner(t *testing.T) {
	var stream []byte
	frame := func(id uint32, trace string, pairs int) {
		body := make([]byte, wireproto.RequestSize(pairs))
		n := wireproto.EncodeRequest(body, make([][2]uint32, pairs))
		flags := uint32(0)
		if trace != "" {
			flags = wireproto.EnvFlagTrace
		}
		env := make([]byte, wireproto.EnvelopeSize+wireproto.TraceSize(len(trace)))
		wireproto.PutEnvelope(env, id, flags, uint32(n))
		k := wireproto.EnvelopeSize
		if trace != "" {
			k += wireproto.PutTrace(env[k:], trace)
		}
		stream = append(append(stream, env[:k]...), body[:n]...)
	}
	hs := make([]byte, wireproto.HandshakeSize(4))
	n := wireproto.EncodeHandshake(hs, wireproto.CapTrace, "abcd")
	env := make([]byte, wireproto.EnvelopeSize)
	wireproto.PutEnvelope(env, 0, 0, uint32(n))
	stream = append(append(stream, env...), hs[:n]...)
	frame(1, "c0-1", 3)
	frame(2, "", 0)
	frame(7, "c1-99", 70)

	type got struct {
		stream uint32
		trace  string
	}
	want := []got{{1, "c0-1"}, {2, ""}, {7, "c1-99"}}
	for chunk := 1; chunk <= 40; chunk++ {
		var f frameScanner
		var seen []got
		for lo := 0; lo < len(stream); lo += chunk {
			f.feed(stream[lo:min(lo+chunk, len(stream))], func(s uint32, tr string) { seen = append(seen, got{s, tr}) })
		}
		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("chunk %d: frames %v, want %v", chunk, seen, want)
		}
	}
}

func TestBatchJSONRoundTrip(t *testing.T) {
	body := appendBatchJSON(nil, [][2]uint32{{1, 2}, {30, 4}})
	if string(body) != `{"pairs":[[1,2],[30,4]]}` {
		t.Fatalf("request body %s", body)
	}
	out := make([]bool, 3)
	if !parseBatchResults([]byte(`{"count":3,"results":[true,false,true]}`), out) || !reflect.DeepEqual(out, []bool{true, false, true}) {
		t.Fatalf("parsed %v", out)
	}
	for _, bad := range []string{`{"count":3,"results":[true,false]}`, `{"count":3,"results":[true,false,true,true]}`, `{"error":"x"}`} {
		if parseBatchResults([]byte(bad), out) {
			t.Errorf("accepted %s", bad)
		}
	}
	if v, ok := parseReachable([]byte(`{"u":1,"v":2,"reachable":true,"cached":false}`)); !ok || !v {
		t.Errorf("parseReachable = %v, %v", v, ok)
	}
}

// TestMetricNamesAndUnits checks every metric the benchmark prints
// against the naming rules and against the lists BENCHMARK.json
// declares.
func TestMetricNamesAndUnits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	res := windowResult{elapsed: time.Second}
	res.batch = []sample{{d: time.Millisecond, pairs: 10}}
	e2e := endToEnd([]setupTimes{{total: time.Second, snapshotBytes: 1e6}}, res)
	var layers []metric
	for _, pl := range perLayer {
		layers = append(layers, metric{Name: pl.name, Unit: pl.unit})
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name    string
		printed []metric
		decl    []struct{ Name, Unit string }
	}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", layers, spec.PerLayer}} {
		seen := map[string]bool{}
		for _, m := range set.printed {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: metric %q with unit %q breaks the naming rules", set.name, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s: metric %q printed twice", set.name, m.Name)
			}
			seen[m.Name] = true
		}
		if len(set.printed) != len(set.decl) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json declares %d", set.name, len(set.printed), len(set.decl))
			continue
		}
		for i, d := range set.decl {
			if p := set.printed[i]; p.Name != d.Name || p.Unit != d.Unit {
				t.Errorf("%s[%d]: prints %s (%s), BENCHMARK.json declares %s (%s)", set.name, i, p.Name, p.Unit, d.Name, d.Unit)
			}
		}
	}
}
