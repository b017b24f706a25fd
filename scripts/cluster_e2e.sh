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
# Replica :${REPLICA_PORTS[0]} additionally gets a -mux-addr stream
# listener (port+100), so one fleet exercises both replica transports at
# once — binary frames over mux streams and over HTTP — and the SIGKILL
# below lands on the mux replica, covering stream-leg death too.
for port in "${REPLICA_PORTS[@]}"; do
  MUX_FLAGS=()
  if [ "$port" = "${REPLICA_PORTS[0]}" ]; then MUX_FLAGS=(-mux-addr "127.0.0.1:$((port + 100))"); fi
  "$BIN/reachd" -snapshot "$WORK/g.snap" -addr "127.0.0.1:$port" \
    ${MUX_FLAGS[@]+"${MUX_FLAGS[@]}"} \
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

echo "== transport negotiation: mux streams to the advertising replica, HTTP to the rest"
curl -fsS "http://$ROUTER_ADDR/v1/stats" > "$WORK/stats0.json"
grep -qE "\"base\":\"http://127\.0\.0\.1:${REPLICA_PORTS[0]}\"[^{}]*\"transport\":\"mux\"" "$WORK/stats0.json" \
  || { echo "mux-advertising replica not negotiated to mux"; cat "$WORK/stats0.json"; exit 1; }
for port in "${REPLICA_PORTS[1]}" "${REPLICA_PORTS[2]}"; do
  grep -qE "\"base\":\"http://127\.0\.0\.1:$port\"[^{}]*\"transport\":\"http\"" "$WORK/stats0.json" \
    || { echo "non-advertising replica :$port not kept on HTTP"; cat "$WORK/stats0.json"; exit 1; }
done
echo "   stats: 1 replica on mux streams, 2 on HTTP"

echo "== full 240-pair batch through the healthy 3/3 fleet: both transports at once"
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

echo "== /metrics on the mux replica (pre-kill): stream transport served its sub-batch"
curl -fsS "http://127.0.0.1:${REPLICA_PORTS[0]}/metrics" > "$WORK/mux_replica_metrics.txt"
grep -Eq 'reach_mux_frames_total\{direction="rx"\} [1-9][0-9]*' "$WORK/mux_replica_metrics.txt" \
  || { echo "mux replica received no stream frames"; grep reach_mux "$WORK/mux_replica_metrics.txt"; exit 1; }
grep -Eq 'reach_mux_conns [1-9][0-9]*' "$WORK/mux_replica_metrics.txt" \
  || { echo "mux replica holds no stream connections"; grep reach_mux "$WORK/mux_replica_metrics.txt"; exit 1; }
grep -q 'reach_http_request_seconds_count{endpoint="mux"}' "$WORK/mux_replica_metrics.txt" \
  || { echo "mux replica missing endpoint=mux latency histogram"; exit 1; }
echo "   mux replica metrics: stream frames received over live connections"

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
# Five rounds of scatter over the two surviving replicas, both on binary
# frames over HTTP now that the mux replica is dead; every round must
# still merge into exactly the single-node answers.
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
# a binary frame: HTTP binary frames moved, and not one JSON sub-batch.
grep -Eq 'reach_wire_frames_total\{encoding="binary"\} [1-9][0-9]*' "$WORK/router_metrics.txt" \
  || { echo "router sent no binary frames"; grep reach_wire "$WORK/router_metrics.txt"; exit 1; }
grep -Eq '^reach_wire_frames_total\{encoding="json"\} 0$' "$WORK/router_metrics.txt" \
  || { echo "router sent JSON sub-batches for u32 IDs"; grep reach_wire "$WORK/router_metrics.txt"; exit 1; }
# The healthy-fleet round must have ridden the stream transport to the
# mux replica (frames in both directions), and after that replica's
# death the router must hold no open mux connections — stream-leg
# teardown is part of the failover story.
grep -Eq 'reach_mux_frames_total\{direction="tx"\} [1-9][0-9]*' "$WORK/router_metrics.txt" \
  || { echo "router sent no mux frames"; grep reach_mux "$WORK/router_metrics.txt"; exit 1; }
grep -Eq 'reach_mux_frames_total\{direction="rx"\} [1-9][0-9]*' "$WORK/router_metrics.txt" \
  || { echo "router received no mux frames"; grep reach_mux "$WORK/router_metrics.txt"; exit 1; }
grep -q 'reach_mux_conns 0' "$WORK/router_metrics.txt" \
  || { echo "router still holds mux connections to a dead replica"; grep reach_mux "$WORK/router_metrics.txt"; exit 1; }
echo "   router metrics: 240 reachable + 6 batch samples, binary frames only, over HTTP + mux streams"

echo "== /metrics on a surviving replica: per-stage histograms must exist"
REPLICA_METRICS="http://127.0.0.1:${REPLICA_PORTS[1]}/metrics"
curl -fsS "$REPLICA_METRICS" > "$WORK/replica_metrics.txt"
# Per-replica counts are load-balanced and nondeterministic; assert the
# serving-stage series exist and the replica answered a nonzero share.
for series in \
  'reach_http_request_seconds_bucket{endpoint="reachable",le=' \
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
