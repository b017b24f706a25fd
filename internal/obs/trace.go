package obs

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// Trace propagation headers. The router stamps every request with a
// trace ID; replicas echo it back and attach a Server-Timing-style
// per-stage breakdown, so one slow answer can be followed from the
// client through the router to the replica stage that cost the time.
const (
	// TraceHeader carries the request's trace ID end to end.
	TraceHeader = "X-Reach-Trace"
	// ServerTimingHeader carries the per-stage latency breakdown in
	// Server-Timing syntax: `stage;dur=1.234` (milliseconds), comma-
	// separated, in execution order.
	ServerTimingHeader = "X-Reach-Server-Timing"
)

// NewTraceID returns a 16-hex-char random trace ID. math/rand/v2's
// top-level generator is per-thread and seeded from the OS, which is
// plenty for correlating log lines — this is not a security token.
func NewTraceID() string {
	var b [8]byte
	v := rand.Uint64()
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return hex.EncodeToString(b[:])
}

// EnsureTrace extracts the request's trace ID, minting one if the
// client did not send one, and echoes it on the response so the caller
// can correlate. Returns the ID.
func EnsureTrace(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(TraceHeader)
	if id == "" {
		id = NewTraceID()
	}
	w.Header().Set(TraceHeader, id)
	return id
}

type traceKey struct{}

// WithTrace attaches a trace ID to ctx for downstream clients to
// forward.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom returns the trace ID attached to ctx, or "".
func TraceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// Stage is one named timing in a Server-Timing breakdown.
type Stage struct {
	Name string
	D    time.Duration
}

// FormatServerTiming renders stages as Server-Timing syntax:
// `parse;dur=0.041, query;dur=1.234`. Durations are milliseconds with
// microsecond precision — the resolution that matters for a
// microsecond-query oracle.
func FormatServerTiming(stages []Stage) string {
	var arr [128]byte
	b := arr[:0]
	for i, s := range stages {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, s.Name...)
		b = append(b, ";dur="...)
		b = appendMillis(b, s.D)
	}
	return string(b)
}

// appendMillis appends d in milliseconds with three decimals, byte for
// byte what strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64) writes, from
// integer microseconds. Rounding the nanoseconds to the nearest
// microsecond agrees with the float everywhere but an exact half
// microsecond, where the quotient's binary rounding picks the side, so
// a tie takes FormatFloat itself; so do negative durations and those of
// 2^53 ns or more, where the quotient's error can reach a nanosecond.
func appendMillis(b []byte, d time.Duration) []byte {
	us, ns := d/1000, d%1000
	if ns == 500 || d < 0 || d >= 1<<53 {
		return strconv.AppendFloat(b, float64(d)/1e6, 'f', 3, 64)
	}
	if ns > 500 {
		us++
	}
	b = strconv.AppendInt(b, int64(us/1000), 10)
	frac := us % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
