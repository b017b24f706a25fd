// Command reachrouter fronts a fleet of reachd replicas that all serve
// the same snapshot: it health-checks them by snapshot fingerprint
// (refusing to enroll a replica serving a different graph),
// load-balances single queries with power-of-two-choices on in-flight
// counts, scatters /v1/batch bodies into per-replica sub-batches and
// gathers the answers back in pair order, fails 429s and dead replicas
// over to another replica, and re-probes ejected replicas with
// exponential backoff.
//
// Usage:
//
//	reachrouter -replicas http://h1:8080,http://h2:8080,http://h3:8080
//	            [-addr :8090] [-probe-interval 1s] [-probe-timeout 2s]
//	            [-max-probe-backoff 30s] [-attempts 3] [-min-subbatch 64]
//	            [-max-batch 1048576] [-upstream-timeout 30s]
//	            [-slow-query-log 100ms] [-pprof]
//
// Sub-batches and single queries travel to replicas as binary frames
// (docs/WIRE.md) over a few persistent raw-TCP stream-transport
// connections per replica, to the listener each replica's /v1/healthz
// advertises (reachd -mux-addr); a single is a one-pair frame flagged
// single, so an unknown vertex still answers 400 and the answer still
// carries "cached". Only a request holding a vertex ID wider than 32
// bits goes over HTTP: a batch as JSON, a single as GET /v1/reachable.
// A replica enrolls only once a probe has completed a stream handshake
// with it; a connection that dies under a request costs one retry on
// another connection, then the replica is ejected and the request
// fails over. So does an attempt that outlives -upstream-timeout, over
// either transport.
//
// The router serves the same v1 API as a single reachd — /v1/healthz,
// /v1/reachable, /v1/batch, /v1/stats, /metrics — so clients point at
// the router exactly as they would at one replica. /v1/stats adds fleet
// and per-replica sections (routing counters plus each healthy replica's
// live upstream stats); /v1/healthz answers 503 while no replica is
// enrolled so a load balancer above can tell.
//
// Observability: the router stamps every request with an X-Reach-Trace
// ID (minting one when the client sent none) and forwards it to the
// replica it picks, so one ID follows a query through both tiers'
// logs; /metrics exposes routing counters, per-replica round-trip
// histograms and the same reach_http_request_seconds series reachd
// serves; -slow-query-log T writes a JSON line to stderr per routed
// request slower than T; -pprof mounts net/http/pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		replicas   = flag.String("replicas", "", "comma-separated reachd base URLs (required)")
		probeIvl   = flag.Duration("probe-interval", fleet.DefaultProbeInterval, "health-check cadence for enrolled replicas")
		probeTO    = flag.Duration("probe-timeout", fleet.DefaultProbeTimeout, "health probe timeout")
		maxBackoff = flag.Duration("max-probe-backoff", fleet.DefaultMaxProbeBackoff, "cap on re-probe backoff for dead replicas")
		attempts   = flag.Int("attempts", fleet.DefaultMaxAttempts, "distinct replicas to try per query or sub-batch")
		minSub     = flag.Int("min-subbatch", fleet.DefaultMinSubBatch, "smallest sub-batch worth sending a replica; a batch fans out only when it holds at least twice this many pairs")
		maxBatch   = flag.Int("max-batch", fleet.DefaultMaxBatchPairs, "max pairs per /v1/batch request")
		upstreamTO = flag.Duration("upstream-timeout", 30*time.Second, "bound on each routed attempt on one replica, over mux or HTTP; an attempt that outlives it ejects the replica and fails over (0 = none)")
		slowTO     = flag.Duration("slow-query-log", 0, "log routed requests slower than this as JSON lines on stderr (0 disables)")
		pprof      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if err := run(*addr, *replicas, fleet.Config{
		ProbeInterval:      *probeIvl,
		ProbeTimeout:       *probeTO,
		MaxProbeBackoff:    *maxBackoff,
		MaxAttempts:        *attempts,
		MinSubBatch:        *minSub,
		MaxBatchPairs:      *maxBatch,
		UpstreamTimeout:    *upstreamTO,
		SlowQueryThreshold: *slowTO,
		EnablePprof:        *pprof,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "reachrouter: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, replicas string, cfg fleet.Config) error {
	if replicas == "" {
		return fmt.Errorf("-replicas is required")
	}
	for _, r := range strings.Split(replicas, ",") {
		r = strings.TrimSuffix(strings.TrimSpace(r), "/")
		if r == "" {
			continue
		}
		if !strings.Contains(r, "://") {
			r = "http://" + r
		}
		cfg.Replicas = append(cfg.Replicas, r)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt, err := fleet.New(ctx, cfg)
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: addr, Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		log.Printf("routing over %d replicas on %s", len(cfg.Replicas), addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("shutdown timed out")
		}
		return err
	}
	return nil
}
