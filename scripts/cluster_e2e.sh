#!/usr/bin/env bash
# Cluster E2E: prove that a 3-replica reachd fleet behind reachrouter
# answers a query sweep exactly like single-node reachcli — including
# while one replica is SIGKILLed mid-sweep (the failover path), and on a
# full scatter-gathered batch while the fleet is degraded.
#
# Run from the repo root:  ./scripts/cluster_e2e.sh
# CI runs this as the cluster-e2e job.
set -euo pipefail

WORK="${WORK:-$(mktemp -d /tmp/reachfleet-e2e.XXXXXX)}"
BIN="$WORK/bin"
mkdir -p "$BIN"
ROUTER_ADDR="127.0.0.1:18080"
REPLICA_PORTS=(18081 18082 18083)

echo "== build binaries"
go build -o "$BIN" ./cmd/...

PIDS=()
cleanup() {
  kill -9 "${PIDS[@]}" 2>/dev/null || true
}
trap cleanup EXIT

echo "== generate graph + deterministic 240-pair query sweep"
"$BIN/gengraph" -family citation -n 20000 -m 80000 -seed 7 -out "$WORK/g.txt"
awk 'BEGIN{
  s=42
  for (i = 0; i < 240; i++) {
    s = (s * 1103515245 + 12345) % 2147483648; u = s % 20000
    s = (s * 1103515245 + 12345) % 2147483648; v = s % 20000
    print u, v
  }
}' > "$WORK/pairs.txt"

echo "== single-node ground truth (reachcli builds the index and saves the fleet's snapshot)"
"$BIN/reachcli" -graph "$WORK/g.txt" -method DL -save "$WORK/g.snap" \
  < "$WORK/pairs.txt" > "$WORK/expected.txt"
grep -cq true "$WORK/expected.txt" || { echo "sweep has no reachable pairs — not a meaningful test"; exit 1; }

echo "== start 3 replicas (each mmap-loads the one snapshot) + the router"
# Every replica serves the stream transport on its default -mux-addr
# (:0, any free port); healthz advertises the bound port, and the router
# dials it on the replica's HTTP host.
for port in "${REPLICA_PORTS[@]}"; do
  "$BIN/reachd" -snapshot "$WORK/g.snap" -addr "127.0.0.1:$port" \
    > "$WORK/reachd-$port.log" 2>&1 &
  PIDS+=($!)
done
"$BIN/reachrouter" -addr "$ROUTER_ADDR" \
  -replicas "http://127.0.0.1:${REPLICA_PORTS[0]},http://127.0.0.1:${REPLICA_PORTS[1]},http://127.0.0.1:${REPLICA_PORTS[2]}" \
  -probe-interval 100ms > "$WORK/router.log" 2>&1 &
PIDS+=($!)

echo "== wait for the router to enroll all 3 replicas"
for i in $(seq 1 150); do
  if curl -fsS "http://$ROUTER_ADDR/v1/healthz" 2>/dev/null | grep -q '"replicas_healthy":3'; then
    break
  fi
  if [ "$i" -eq 150 ]; then
    echo "fleet never became fully healthy"; cat "$WORK/router.log"; exit 1
  fi
  sleep 0.2
done
curl -fsS "http://$ROUTER_ADDR/v1/healthz"; echo

echo "== full 240-pair batch through the healthy 3/3 fleet, as mux frames"
{
  printf '{"pairs":['
  awk '{printf "%s[%d,%d]", (NR > 1 ? "," : ""), $1, $2}' "$WORK/pairs.txt"
  printf ']}'
} > "$WORK/batch.json"
awk '{print $3}' "$WORK/expected.txt" > "$WORK/batch_expected.txt"
curl -fsS -X POST --data-binary "@$WORK/batch.json" \
  "http://$ROUTER_ADDR/v1/batch" > "$WORK/batch0.out"
sed -E 's/.*"results":\[([^]]*)\].*/\1/' "$WORK/batch0.out" | tr ',' '\n' > "$WORK/batch0_got.txt"
diff "$WORK/batch_expected.txt" "$WORK/batch0_got.txt" \
  || { echo "healthy-fleet batch diverged from single-node answers"; exit 1; }

echo "== /metrics (pre-kill): the batch's 3 sub-batches rode the stream transport"
# The 240-pair batch splits into three 80-pair sub-batches whose replicas
# power-of-two choices picks at random, so assert what holds whichever
# replicas served them: the router sent at least 3 frames and no JSON
# sub-batch, and summed over the replicas at least 3 frames arrived, at
# least 3 landed in the endpoint="mux" latency histogram, and every
# replica holds the stream connection its enrollment probe dialed.
curl -fsS "http://$ROUTER_ADDR/metrics" > "$WORK/router_metrics0.txt"
grep -Eq 'reach_mux_frames_total\{direction="tx"\} ([3-9]|[1-9][0-9]+)$' "$WORK/router_metrics0.txt" \
  || { echo "router sent fewer than 3 mux frames"; grep reach_mux "$WORK/router_metrics0.txt"; exit 1; }
grep -Eq '^reach_wire_frames_total\{encoding="json"\} 0$' "$WORK/router_metrics0.txt" \
  || { echo "router sent JSON sub-batches for u32 IDs"; grep reach_wire "$WORK/router_metrics0.txt"; exit 1; }
rx=0 muxreqs=0
for port in "${REPLICA_PORTS[@]}"; do
  curl -fsS "http://127.0.0.1:$port/metrics" > "$WORK/replica_metrics0.txt"
  n=$(sed -nE 's/^reach_mux_frames_total\{direction="rx"\} ([0-9]+)$/\1/p' "$WORK/replica_metrics0.txt")
  rx=$((rx + ${n:-0}))
  n=$(sed -nE 's/^reach_http_request_seconds_count\{endpoint="mux"\} ([0-9]+)$/\1/p' "$WORK/replica_metrics0.txt")
  muxreqs=$((muxreqs + ${n:-0}))
  grep -Eq '^reach_mux_conns [1-9][0-9]*$' "$WORK/replica_metrics0.txt" \
    || { echo "replica :$port holds no stream connections"; grep reach_mux "$WORK/replica_metrics0.txt"; exit 1; }
done
[ "$rx" -ge 3 ] || { echo "replicas received $rx mux frames, want >= 3"; exit 1; }
[ "$muxreqs" -ge 3 ] \
  || { echo "replicas' endpoint=\"mux\" latency histograms counted $muxreqs sub-batches, want >= 3"; exit 1; }
echo "   router sent the sub-batches as mux frames; replicas received $rx, timed $muxreqs"

echo "== sweep through the router, SIGKILLing replica :${REPLICA_PORTS[0]} at query 120"
: > "$WORK/got.txt"
n=0
while read -r u v; do
  n=$((n + 1))
  if [ "$n" -eq 120 ]; then
    echo "   ... SIGKILL replica ${REPLICA_PORTS[0]} (pid ${PIDS[0]}) mid-sweep"
    kill -9 "${PIDS[0]}"
  fi
  ans=$(curl -fsS "http://$ROUTER_ADDR/v1/reachable?u=$u&v=$v" \
    | sed -E 's/.*"reachable":(true|false).*/\1/')
  echo "$u $v $ans" >> "$WORK/got.txt"
done < "$WORK/pairs.txt"

echo "== diff sweep answers against single-node reachcli"
diff "$WORK/expected.txt" "$WORK/got.txt"
echo "   sweep identical across router failover ($(wc -l < "$WORK/got.txt") queries)"

echo "== full 240-pair batch through the degraded (2/3) fleet, 5 rounds"
# Five rounds of scatter over the two surviving replicas' mux streams;
# every round must still merge into exactly the single-node answers.
for round in 1 2 3 4 5; do
  curl -fsS -X POST --data-binary "@$WORK/batch.json" \
    "http://$ROUTER_ADDR/v1/batch" > "$WORK/batch.out"
  sed -E 's/.*"results":\[([^]]*)\].*/\1/' "$WORK/batch.out" | tr ',' '\n' > "$WORK/batch_got.txt"
  diff "$WORK/batch_expected.txt" "$WORK/batch_got.txt" \
    || { echo "degraded-fleet batch round $round diverged from single-node answers"; exit 1; }
done
echo "   scatter-gathered batch identical while degraded, 5/5 rounds"

echo "== router stats must show the kill (a down replica + failover/retry counters)"
curl -fsS "http://$ROUTER_ADDR/v1/stats" > "$WORK/stats.json"
grep -q '"state":"down"' "$WORK/stats.json" || { echo "no replica marked down"; cat "$WORK/stats.json"; exit 1; }
grep -q '"replicas_healthy":2' "$WORK/stats.json" || { echo "fleet not degraded to 2/3"; cat "$WORK/stats.json"; exit 1; }

echo "== /metrics on the router: histogram counts must match the sweep exactly"
curl -fsS "http://$ROUTER_ADDR/metrics" > "$WORK/router_metrics.txt"
# 240 single queries and 6 batch rounds (1 healthy + 5 degraded) went
# through the router; every one is a histogram sample.
grep -q 'reach_http_request_seconds_count{endpoint="reachable"} 240' "$WORK/router_metrics.txt" \
  || { echo "router reachable histogram count != 240"; grep reach_http_request_seconds_count "$WORK/router_metrics.txt"; exit 1; }
grep -q 'reach_http_request_seconds_count{endpoint="batch"} 6' "$WORK/router_metrics.txt" \
  || { echo "router batch histogram count != 6"; grep reach_http_request_seconds_count "$WORK/router_metrics.txt"; exit 1; }
grep -q 'reach_http_request_seconds_bucket{endpoint="reachable",le=' "$WORK/router_metrics.txt" \
  || { echo "router missing request _bucket series"; exit 1; }
grep -q 'reach_router_upstream_seconds_bucket{' "$WORK/router_metrics.txt" \
  || { echo "router missing per-replica upstream RTT histogram"; exit 1; }
# The kill is detected either by an in-flight request (failovers_total)
# or by the probe loop racing ahead of the sweep — so assert the series
# exists rather than its value.
grep -q 'reach_router_failovers_total' "$WORK/router_metrics.txt" \
  || { echo "router missing failover counter"; exit 1; }
grep -q 'reach_router_replicas_healthy 2' "$WORK/router_metrics.txt" \
  || { echo "router healthy-replica gauge != 2"; exit 1; }
# Every sweep ID fits u32, so every interior sub-batch must have left as
# a mux frame and not one as JSON: at least one frame each way per batch
# round.
grep -Eq '^reach_wire_frames_total\{encoding="json"\} 0$' "$WORK/router_metrics.txt" \
  || { echo "router sent JSON sub-batches for u32 IDs"; grep reach_wire "$WORK/router_metrics.txt"; exit 1; }
tx=$(sed -nE 's/^reach_mux_frames_total\{direction="tx"\} ([0-9]+)$/\1/p' "$WORK/router_metrics.txt")
rx=$(sed -nE 's/^reach_mux_frames_total\{direction="rx"\} ([0-9]+)$/\1/p' "$WORK/router_metrics.txt")
[ "${tx:-0}" -ge 6 ] && [ "${rx:-0}" -ge 6 ] \
  || { echo "router mux frames tx=${tx:-?} rx=${rx:-?}, want >= 6 each (one per batch round at least)"; exit 1; }
# The dead replica's connections are gone: at most the pools of the two
# survivors (2 connections each) remain open.
conns=$(sed -nE 's/^reach_mux_conns ([0-9]+)$/\1/p' "$WORK/router_metrics.txt")
[ "${conns:-0}" -ge 1 ] && [ "${conns:-0}" -le 4 ] \
  || { echo "router holds ${conns:-?} mux connections, want 1-4 to the 2 survivors"; exit 1; }
echo "   router metrics: 240 reachable + 6 batch samples, all sub-batches as mux frames (tx=$tx rx=$rx)"

echo "== /metrics on a surviving replica: per-stage histograms must exist"
REPLICA_METRICS="http://127.0.0.1:${REPLICA_PORTS[1]}/metrics"
curl -fsS "$REPLICA_METRICS" > "$WORK/replica_metrics.txt"
# Per-replica counts are load-balanced and nondeterministic; assert the
# serving-stage series exist and the replica answered a nonzero share.
for series in \
  'reach_http_request_seconds_bucket{endpoint="reachable",le=' \
  'reach_http_request_seconds_bucket{endpoint="mux",le=' \
  'reach_stage_seconds_bucket{stage="cache_lookup",le=' \
  'reach_stage_seconds_bucket{stage="index_probe",le=' \
  'reach_stage_seconds_bucket{stage="chunk_dispatch",le='; do
  grep -q "$series" "$WORK/replica_metrics.txt" \
    || { echo "replica missing series $series"; exit 1; }
done
grep -Eq 'reach_queries_total [1-9][0-9]*' "$WORK/replica_metrics.txt" \
  || { echo "replica served no queries?"; grep reach_queries_total "$WORK/replica_metrics.txt"; exit 1; }
echo "   replica metrics: all serving-stage histograms present"

echo "== trace propagation: a client trace ID must come back from the router"
TRACE_ID="e2e-cluster-trace-$$"
read -r u v < "$WORK/pairs.txt"
curl -fsS -D "$WORK/trace_headers.txt" -H "X-Reach-Trace: $TRACE_ID" \
  "http://$ROUTER_ADDR/v1/reachable?u=$u&v=$v" > /dev/null
grep -qi "x-reach-trace: $TRACE_ID" "$WORK/trace_headers.txt" \
  || { echo "router did not echo the trace ID"; cat "$WORK/trace_headers.txt"; exit 1; }
grep -qi "x-reach-server-timing: .*route;dur=" "$WORK/trace_headers.txt" \
  || { echo "router response missing Server-Timing stages"; cat "$WORK/trace_headers.txt"; exit 1; }
echo "   trace ID echoed with per-stage Server-Timing"

echo "PASS: fleet answers == single-node answers, before and after replica death"
