package server

import "fmt"

// Wire types of the v1 HTTP API. They are exported so other processes
// speaking the protocol — the fleet router's replica client, load
// generators, operational tooling — marshal exactly what the handlers
// unmarshal instead of keeping parallel struct definitions.

// HealthzResponse is the /v1/healthz payload. Beyond liveness it carries
// the serving identity: the index method tag and the snapshot/graph
// fingerprint, so a router (or an operator) can detect a replica that is
// alive but serving the wrong graph before enrolling it in a fleet.
type HealthzResponse struct {
	Status   string `json:"status"`
	Method   string `json:"method"`
	Vertices int    `json:"vertices"`
	// Fingerprint is the graph's structural hash (Graph.Fingerprint) in
	// fixed-width hex — the same value snapshots embed, so every replica
	// that mmap'd one snapshot file reports one fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Source is "snapshot" when the index was loaded from a snapshot
	// file, "built" when constructed at startup.
	Source string `json:"source"`
	// Build identity and uptime, so a fleet operator can spot a replica
	// running stale code or one that just restarted. GoVersion and
	// Revision come from the binary's embedded build info.
	GoVersion     string  `json:"go_version,omitempty"`
	Revision      string  `json:"revision,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	// Mux is the host:port of this replica's raw-TCP stream-transport
	// listener (docs/WIRE.md, "Stream transport"). Fleet routers dial it
	// and pipeline sub-batches and single queries over a few persistent
	// connections; a replica without one is never enrolled in a fleet.
	Mux string `json:"mux,omitempty"`
}

// ReachableResponse is the /v1/reachable payload; U and V echo the
// caller's IDs.
type ReachableResponse struct {
	U         uint64 `json:"u"`
	V         uint64 `json:"v"`
	Reachable bool   `json:"reachable"`
	Cached    bool   `json:"cached"`
}

// BatchRequest is the /v1/batch input; pairs naming unknown vertices
// answer false rather than failing the whole batch.
type BatchRequest struct {
	Pairs [][2]uint64 `json:"pairs"`
}

// BatchResponse is the /v1/batch payload; Results[i] answers Pairs[i].
type BatchResponse struct {
	Count   int    `json:"count"`
	Results []bool `json:"results"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// FingerprintString renders a graph fingerprint the way the wire
// protocol carries it: fixed-width lowercase hex. JSON numbers lose
// precision above 2^53 in many decoders, so the hash travels as text.
func FingerprintString(fp uint64) string {
	return fmt.Sprintf("%016x", fp)
}
