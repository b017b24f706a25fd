package obs

import (
	"bytes"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The scrape parser must invert WritePrometheus closely enough that
// reachbench's server-side quantiles agree with the live histogram's
// own, up to export-bound coarsening.
func TestScrapeRoundTripQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("reach_http_request_seconds", "latency", Labels{"endpoint": "batch"})
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 30000; i++ {
		// Latency-shaped: 50µs..5ms bulk with a 100ms tail.
		d := time.Duration(50_000 + rng.Uint64N(5_000_000))
		if i%100 == 0 {
			d = time.Duration(100_000_000 + rng.Uint64N(50_000_000))
		}
		h.RecordDuration(d)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	scraped, err := ParseHistogram(bytes.NewReader(buf.Bytes()),
		"reach_http_request_seconds", Labels{"endpoint": "batch"})
	if err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	if scraped.Count != snap.Count {
		t.Fatalf("scraped count %d, live %d", scraped.Count, snap.Count)
	}
	for _, q := range []float64{0.5, 0.99} {
		live := float64(snap.Quantile(q)) / 1e9
		got := scraped.Quantile(q)
		// The scraped answer sits on an export bound at or above the
		// fine-grained one, and export bounds are ≤2.5x apart.
		if got < live || got > live*2.5 {
			t.Fatalf("q%g: scraped %g vs live %g out of coarsening bounds", q*100, got, live)
		}
	}
}

func TestScrapeSubIsolatesInterval(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("m_seconds", "x", nil)
	scrape := func() *ScrapedHist {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		s, err := ParseHistogram(bytes.NewReader(buf.Bytes()), "m_seconds", nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i := 0; i < 100; i++ {
		h.RecordDuration(time.Millisecond)
	}
	before := scrape()
	for i := 0; i < 40; i++ {
		h.RecordDuration(2 * time.Second)
	}
	after := scrape()
	if err := after.Sub(before); err != nil {
		t.Fatal(err)
	}
	if after.Count != 40 {
		t.Fatalf("interval count %d, want 40", after.Count)
	}
	// Every interval observation was 2s, so p50 must land on an export
	// bound ≥ 2s, not on the pre-existing 1ms bulk.
	if q := after.Quantile(0.5); q < 2 {
		t.Fatalf("interval p50 %g, want ≥ 2s", q)
	}
	if after.Sum < 79 || after.Sum > 81 {
		t.Fatalf("interval sum %g, want ~80s", after.Sum)
	}
}

func TestScrapeMissingMetric(t *testing.T) {
	if _, err := ParseHistogram(bytes.NewReader([]byte("other_total 5\n")), "m_seconds", nil); err == nil {
		t.Fatal("want error for missing metric")
	}
}

func TestSlowLogEmit(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond)
	if l.Slow(5 * time.Millisecond) {
		t.Fatal("5ms must not be slow at a 10ms threshold")
	}
	if !l.Slow(10 * time.Millisecond) {
		t.Fatal("10ms must be slow at a 10ms threshold")
	}
	l.Emit(map[string]any{"trace": "abc", "duration_ms": 12.5})
	if l.Emitted() != 1 {
		t.Fatalf("emitted %d, want 1", l.Emitted())
	}
	if got := buf.String(); got != `{"duration_ms":12.5,"trace":"abc"}`+"\n" {
		t.Fatalf("unexpected JSON line: %q", got)
	}
	var nilLog *SlowLog
	if nilLog.Slow(time.Hour) || nilLog.Emitted() != 0 {
		t.Fatal("nil SlowLog must be disabled")
	}
	nilLog.Emit("ignored")
	if NewSlowLog(nil, time.Second) != nil || NewSlowLog(&buf, 0) != nil {
		t.Fatal("nil writer or zero threshold must disable the log")
	}
}

func TestTraceHelpers(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 || a == b {
		t.Fatalf("trace IDs: %q %q", a, b)
	}
	ctx := WithTrace(t.Context(), a)
	if TraceFrom(ctx) != a {
		t.Fatal("trace did not round-trip through context")
	}
	if TraceFrom(t.Context()) != "" {
		t.Fatal("empty context must have no trace")
	}
	st := FormatServerTiming([]Stage{
		{Name: "cache", D: 1500 * time.Microsecond},
		{Name: "probe", D: 42 * time.Microsecond},
	})
	if st != "cache;dur=1.500, probe;dur=0.042" {
		t.Fatalf("server timing: %q", st)
	}
}

// TestServerTimingMatchesFormatFloat pins FormatServerTiming's integer
// formatting to the strconv.FormatFloat(ms, 'f', 3, 64) text it
// replaced, on random durations of every magnitude, on exact
// half-microsecond ties (where the two roundings can differ and the
// float decides), and on the edges of the integer path.
func TestServerTimingMatchesFormatFloat(t *testing.T) {
	want := func(d time.Duration) string {
		return "s;dur=" + strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64)
	}
	check := func(d time.Duration) {
		t.Helper()
		if got := FormatServerTiming([]Stage{{Name: "s", D: d}}); got != want(d) {
			t.Fatalf("duration %d ns: %q, FormatFloat writes %q", int64(d), got, want(d))
		}
	}
	rng := rand.New(rand.NewPCG(19, 23))
	for range 200000 {
		check(time.Duration(rng.Int64N(int64(1) << rng.IntN(54))))
	}
	for range 20000 {
		check(time.Duration(rng.Int64N(1<<40))/1000*1000 + 500)
	}
	for _, d := range []time.Duration{0, 1, 499, 500, 501, 999, 1000, 999_499, 999_500, 999_501,
		1<<53 - 1, 1 << 53, 1<<62 + 500, -1, -500, -1501} {
		check(d)
	}
	stages := []Stage{{"decode", 12_345}, {"resolve", 999}, {"cache", 0}, {"probe", 2_500}, {"total", 123_456_789}}
	var b strings.Builder
	for i, s := range stages {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Name + ";dur=" + strconv.FormatFloat(float64(s.D)/1e6, 'f', 3, 64))
	}
	if got := FormatServerTiming(stages); got != b.String() {
		t.Fatalf("five stages: %q, want %q", got, b.String())
	}
	if allocs := testing.AllocsPerRun(100, func() { FormatServerTiming(stages) }); allocs > 1 {
		t.Fatalf("FormatServerTiming allocates %.1f times, want the result string only", allocs)
	}
}
