package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	reach "repro"
	"repro/internal/fleet"
	"repro/internal/server"
)

// TestEdgeVerdictTable sends every body of the verdict table to both
// JSON edges — a reachd and a router in front of it — and requires the
// status, Connection header, error text and results recorded from the
// encoding/json handlers, whichever path the codec takes for the body.
func TestEdgeVerdictTable(t *testing.T) {
	g, err := reach.NewGraph(server.EdgeGraph.N, server.EdgeGraph.Edges)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(g, oracle, server.Config{MaxBatchPairs: server.EdgeMaxPairs})
	replica := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		replica.Close()
		s.Close()
	})
	rt, err := fleet.New(context.Background(), fleet.Config{
		Replicas:      []string{replica.URL},
		MaxBatchPairs: server.EdgeMaxPairs,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		router.Close()
		rt.Close()
	})

	for _, edge := range []struct{ name, url string }{{"reachd", replica.URL}, {"router", router.URL}} {
		for _, c := range server.EdgeCases {
			resp, err := http.Post(edge.url+"/v1/batch", "application/json", strings.NewReader(c.Body))
			if err != nil {
				t.Fatalf("%s %q: %v", edge.name, c.Name, err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %q: reading answer: %v", edge.name, c.Name, err)
			}
			if resp.StatusCode != c.Status {
				t.Errorf("%s %q: status %d, want %d (%s)", edge.name, c.Name, resp.StatusCode, c.Status, raw)
				continue
			}
			if resp.Close != c.Close {
				t.Errorf("%s %q: Connection: close = %v, want %v", edge.name, c.Name, resp.Close, c.Close)
			}
			if c.Status != http.StatusOK {
				var er server.ErrorResponse
				if err := json.Unmarshal(raw, &er); err != nil || er.Error != c.Error {
					t.Errorf("%s %q: error %q (%v), want %q", edge.name, c.Name, er.Error, err, c.Error)
				}
				continue
			}
			var br server.BatchResponse
			if err := json.Unmarshal(raw, &br); err != nil {
				t.Fatalf("%s %q: bad answer %q: %v", edge.name, c.Name, raw, err)
			}
			if br.Count != len(c.Results) || !slices.Equal(br.Results, c.Results) {
				t.Errorf("%s %q: count %d results %v, want %v", edge.name, c.Name, br.Count, br.Results, c.Results)
			}
		}
	}
}
