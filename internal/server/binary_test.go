package server

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/wireproto"
)

// postBinary sends one wireproto request frame to a test server's
// /v1/batch and returns the response status, content type and body.
func postBinary(t testing.TB, url string, frame []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", wireproto.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

func encodeRequestFrame(pairs [][2]uint32) []byte {
	frame := make([]byte, wireproto.RequestSize(len(pairs)))
	wireproto.EncodeRequest(frame, pairs)
	return frame
}

// TestBinaryBatch round-trips a binary batch against the JSON path's
// answers for the same pairs: two encodings, one semantics.
func TestBinaryBatch(t *testing.T) {
	g, s, ts := fixture(t, Config{})
	pairs := make([][2]uint32, 300)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i % g.NumVertices()), uint32((i * 7) % g.NumVertices())}
	}
	status, ct, body := postBinary(t, ts.URL, encodeRequestFrame(pairs))
	if status != http.StatusOK || ct != wireproto.ContentType {
		t.Fatalf("binary batch: status %d content type %q body %q", status, ct, body)
	}
	n, err := wireproto.ResponseCount(body)
	if err != nil || n != len(pairs) {
		t.Fatalf("ResponseCount = %d, %v", n, err)
	}
	got := make([]bool, n)
	if err := wireproto.DecodeResponse(body, got); err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, _ := s.Reachable(p[0], p[1])
		if got[i] != want {
			t.Fatalf("pair %d (%d,%d): binary says %v, oracle says %v", i, p[0], p[1], got[i], want)
		}
	}
}

// TestBinaryBatchUnknownVertices: out-of-range IDs answer false, exactly
// like the JSON batch path, instead of failing the batch.
func TestBinaryBatchUnknownVertices(t *testing.T) {
	g, _, ts := fixture(t, Config{})
	huge := uint32(g.NumVertices() + 1000)
	status, _, body := postBinary(t, ts.URL, encodeRequestFrame([][2]uint32{{huge, 0}, {0, huge}}))
	if status != http.StatusOK {
		t.Fatalf("status %d body %q", status, body)
	}
	got := make([]bool, 2)
	if err := wireproto.DecodeResponse(body, got); err != nil {
		t.Fatal(err)
	}
	if got[0] || got[1] {
		t.Fatalf("unknown-vertex pairs answered %v, want false,false", got)
	}
}

// TestBinaryBatchRejections drives every malformed-frame branch and
// checks each comes back as a wireproto error frame with the right
// status, both in the HTTP status line and in-band.
func TestBinaryBatchRejections(t *testing.T) {
	_, _, ts := fixture(t, Config{MaxBatchPairs: 100})
	valid := encodeRequestFrame([][2]uint32{{1, 2}})
	badMagic := bytes.Clone(valid)
	badMagic[0] = 'X'
	errorKind := make([]byte, wireproto.ErrorSize(2))
	wireproto.EncodeError(errorKind, 400, "hi")
	big := make([]byte, wireproto.HeaderSize)
	wireproto.EncodeRequest(big, nil)
	big[8] = 101 // count 101 > MaxBatchPairs 100, no payload needed

	cases := []struct {
		name   string
		frame  []byte
		status int
		substr string
	}{
		{"truncated header", valid[:8], http.StatusBadRequest, "truncated"},
		{"truncated payload", valid[:len(valid)-3], http.StatusBadRequest, "truncated"},
		{"trailing bytes", append(bytes.Clone(valid), 0xEE), http.StatusBadRequest, "trailing"},
		{"bad magic", badMagic, http.StatusBadRequest, "magic"},
		{"error frame as request", errorKind, http.StatusBadRequest, "not a request"},
		{"over pair limit", big, http.StatusRequestEntityTooLarge, "exceeds limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, ct, body := postBinary(t, ts.URL, tc.frame)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %q)", status, tc.status, body)
			}
			if ct != wireproto.ContentType {
				t.Fatalf("error answered with content type %q, want an error frame", ct)
			}
			inband, msg, err := wireproto.DecodeError(body)
			if err != nil {
				t.Fatalf("response is not a valid error frame: %v (% x)", err, body)
			}
			if inband != tc.status || !strings.Contains(msg, tc.substr) {
				t.Fatalf("error frame (%d, %q), want status %d with %q", inband, msg, tc.status, tc.substr)
			}
		})
	}
}

// TestHealthzAdvertisesMux: healthz advertises exactly the stream
// listener the server was configured with, and none without one.
func TestHealthzAdvertisesMux(t *testing.T) {
	for _, addr := range []string{"", "127.0.0.1:7071"} {
		_, _, ts := fixture(t, Config{MuxAddr: addr})
		var hz HealthzResponse
		getJSON(t, ts.URL+"/v1/healthz", &hz)
		if hz.Mux != addr {
			t.Fatalf("healthz mux = %q with MuxAddr %q, want it echoed", hz.Mux, addr)
		}
	}
}

// TestWireMetrics: both encodings bump their frame and byte counters,
// visible in /v1/stats-free form on /metrics.
func TestWireMetrics(t *testing.T) {
	_, _, ts := fixture(t, Config{})
	// One binary batch, one JSON batch.
	if status, _, _ := postBinary(t, ts.URL, encodeRequestFrame([][2]uint32{{1, 2}})); status != http.StatusOK {
		t.Fatalf("binary batch status %d", status)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"pairs":[[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	page, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`reach_wire_frames_total{encoding="binary"} 1`,
		`reach_wire_frames_total{encoding="json"} 1`,
		`reach_wire_bytes_total{direction="rx",encoding="binary"} 20`, // 12 header + 1 pair
		`reach_wire_bytes_total{direction="tx",encoding="binary"} 20`, // 12 header + 1 word
		`reach_wire_bytes_total{direction="rx",encoding="json"} 17`,   // {"pairs":[[1,2]]}
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The JSON tx byte count depends on encoding details; just demand
	// it is a positive series.
	if !strings.Contains(string(page), `reach_wire_bytes_total{direction="tx",encoding="json"}`) {
		t.Errorf("/metrics missing JSON tx byte series")
	}
}
