// Command reachd serves reachability queries over HTTP: it loads an
// edge-list graph, builds (or snapshot-loads) a reachability index, and
// answers single, batch and stats requests through a lock-free query
// cache and a worker pool.
//
// Usage:
//
//	reachd -graph g.txt [-method DL] [-addr :8080] [-snapshot g.snap]
//	       [-workers N] [-cache-capacity 1048576] [-request-timeout 0]
//	       [-max-inflight 0] [-slow-query-log 50ms] [-pprof]
//	       [-mux-addr HOST:0]
//
// -cache-capacity sizes the query cache in answers, rounded down to a
// power of two (at least 64); a negative value disables it.
//
// -mux-addr is where reachd listens for the raw-TCP stream transport
// (docs/WIRE.md, "Stream transport"), which carries every fleet router
// sub-batch whose IDs fit u32. It is always on: the default takes any
// free port on the host -addr names (":0" for the default ":8080", so
// a reachd bound to loopback keeps its stream listener on loopback),
// and /v1/healthz advertises the port actually bound, so routers find
// it without configuration.
//
// If -snapshot names an existing snapshot of the same graph and method,
// it is memory-mapped and serving starts in milliseconds — the snapshot
// carries the graph's condensation and original vertex IDs, so with a
// valid snapshot -graph may be omitted entirely. Otherwise the index is
// built and, when -snapshot is set, saved there so the next start is
// instant. Any method in Methods() can be snapshotted, not just the hop
// labelings.
//
// Endpoints:
//
//	GET  /v1/healthz
//	GET  /v1/reachable?u=U&v=V
//	POST /v1/batch          {"pairs": [[u,v], ...]}
//	GET  /v1/stats
//	GET  /metrics           Prometheus text-format exposition
//
// Vertex IDs in queries are the original IDs from the edge-list file —
// the same IDs reachcli answers with for the same graph.
//
// Observability: every query response echoes an X-Reach-Trace ID and an
// X-Reach-Server-Timing per-stage breakdown; -slow-query-log T writes a
// JSON line to stderr for each request slower than T; -pprof mounts
// net/http/pprof under /debug/pprof/.
//
// Overload protection: -request-timeout puts a deadline on every query
// request (an expired batch stops mid-dispatch and answers 503), and
// -max-inflight caps concurrently-served query requests — excess
// requests answer 429 with Retry-After instead of queueing unboundedly.
// /v1/healthz and /v1/stats bypass the gate so monitoring keeps working
// under overload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	reach "repro"
	"repro/internal/server"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file (optional when -snapshot holds a usable snapshot)")
		method    = flag.String("method", "DL", fmt.Sprintf("index method %v", reach.Methods()))
		addr      = flag.String("addr", ":8080", "listen address")
		snapshot  = flag.String("snapshot", "", "snapshot path: mmap-load if present, else build and save")
		workers   = flag.Int("workers", 0, "batch worker pool size (default GOMAXPROCS)")
		cacheCap  = flag.Int("cache-capacity", server.DefaultCacheCapacity, "query cache answers, rounded down to a power of two, at least 64 (negative disables)")
		maxBatch  = flag.Int("max-batch", 0, "max pairs per /v1/batch request (default 1<<20)")
		reqTO     = flag.Duration("request-timeout", 0, "per-request deadline; expired requests answer 503 (0 disables; defaults to 30s when -max-inflight is set)")
		inflight  = flag.Int("max-inflight", 0, "max concurrent query requests before answering 429 (0 = unlimited)")
		slowTO    = flag.Duration("slow-query-log", 0, "log queries slower than this as JSON lines on stderr (0 disables)")
		pprof     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		muxAddr   = flag.String("mux-addr", "", "listen address for the raw-TCP stream transport that fleet routers send batches over; advertised via /v1/healthz (default: the -addr host, port 0 = any free port)")
	)
	flag.Parse()
	// An unset -method means "whatever the snapshot holds" when loading,
	// and DL when building; only an explicit -method constrains a load.
	// An unset -mux-addr follows -addr's host; run rejects an explicitly
	// empty one.
	methodSet, muxSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "method":
			methodSet = true
		case "mux-addr":
			muxSet = true
		}
	})
	if !muxSet {
		var err error
		if *muxAddr, err = defaultMuxAddr(*addr); err != nil {
			fmt.Fprintf(os.Stderr, "reachd: %v\n", err)
			os.Exit(1)
		}
	}
	if err := run(*graphPath, *method, methodSet, *addr, *snapshot, *muxAddr, server.Config{
		Workers:            *workers,
		CacheCapacity:      *cacheCap,
		MaxBatchPairs:      *maxBatch,
		RequestTimeout:     *reqTO,
		MaxInFlight:        *inflight,
		SlowQueryThreshold: *slowTO,
		EnablePprof:        *pprof,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "reachd: %v\n", err)
		os.Exit(1)
	}
}

// defaultMuxAddr is -mux-addr's default: any free port on the host addr
// names, so the stream listener is reachable from exactly where the
// HTTP one is (":8080" gives ":0", "127.0.0.1:8080" gives
// "127.0.0.1:0").
func defaultMuxAddr(addr string) (string, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("-addr %q: %w", addr, err)
	}
	return net.JoinHostPort(host, "0"), nil
}

func run(graphPath, method string, methodSet bool, addr, snapshot, muxAddr string, cfg server.Config) error {
	if graphPath == "" && snapshot == "" {
		return fmt.Errorf("-graph or -snapshot is required")
	}
	if muxAddr == "" {
		return fmt.Errorf("-mux-addr must not be empty (fleet routers send batches only over the stream transport; HOST:0 takes any free port)")
	}
	var g *reach.Graph
	if graphPath != "" {
		f, err := os.Open(graphPath)
		if err != nil {
			return err
		}
		var parseErr error
		g, _, parseErr = reach.ReadGraph(f)
		f.Close()
		if parseErr != nil {
			return parseErr
		}
		log.Printf("graph: %d vertices (%d after condensation), %d DAG edges",
			g.NumVertices(), g.DAGVertices(), g.DAGEdges())
	}

	oracle, err := loadOrBuild(g, reach.Method(method), methodSet, snapshot)
	if err != nil {
		return err
	}
	defer oracle.Close()
	if g == nil {
		// Snapshot-only start: the graph (and its original IDs) come from
		// the snapshot. When -graph was parsed too, keep it — the
		// fingerprint check proved them equivalent, and the parsed graph
		// always carries the file's IDs.
		g = oracle.Graph()
	}
	cfg.OrigIDs = g.OrigIDs()

	// Bind the stream-transport listener before building the server, so
	// healthz advertises the port the kernel actually assigned (":0"
	// resolves here) rather than the flag's wish; a wildcard host stays
	// wildcard, and routers substitute the host they reach healthz on.
	muxLn, err := net.Listen("tcp", muxAddr)
	if err != nil {
		return fmt.Errorf("mux listener: %w", err)
	}
	cfg.MuxAddr = muxLn.Addr().String()

	s := server.New(g, oracle, cfg)
	// ReadHeaderTimeout bounds header trickling independently of
	// -request-timeout (which covers the body and the query itself), so
	// idle half-open connections can't pile up goroutines.
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	muxSrv := s.NewMuxServer(log.Printf)
	go func() {
		log.Printf("serving stream transport on %s", muxLn.Addr())
		if serr := muxSrv.Serve(muxLn); serr != nil {
			errc <- fmt.Errorf("mux: %w", serr)
		}
	}()
	go func() {
		log.Printf("serving %s index on %s", oracle.Method(), addr)
		errc <- httpSrv.ListenAndServe()
	}()

	shutdownMux := func(ctx context.Context) {
		if merr := muxSrv.Shutdown(ctx); merr != nil {
			log.Printf("warning: mux shutdown: %v", merr)
		}
	}
	select {
	case err := <-errc:
		closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		shutdownMux(closeCtx)
		cancel()
		s.Close()
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(shutCtx)
	shutdownMux(shutCtx)
	s.Close()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown timed out")
	}
	return err
}

// loadSnapshot memory-maps the snapshot and verifies it matches the
// parsed graph (when one was parsed) and the requested method (when
// -method was given explicitly).
func loadSnapshot(g *reach.Graph, method reach.Method, methodSet bool, path string) (*reach.Oracle, error) {
	oracle, err := reach.Load(path)
	if err != nil {
		return nil, err
	}
	if g != nil && oracle.Graph().Fingerprint() != g.Fingerprint() {
		oracle.Close()
		return nil, fmt.Errorf("snapshot was built from a different graph (fingerprint mismatch)")
	}
	if methodSet && oracle.Method() != string(method) {
		m := oracle.Method()
		oracle.Close()
		return nil, fmt.Errorf("snapshot holds a %s index but -method is %s", m, method)
	}
	return oracle, nil
}

// loadOrBuild restores the oracle from an existing snapshot, or builds it
// and saves a snapshot for the next restart. g may be nil when only a
// snapshot was given; building then is impossible and load errors are
// fatal rather than recoverable.
func loadOrBuild(g *reach.Graph, method reach.Method, methodSet bool, snapshot string) (*reach.Oracle, error) {
	if snapshot != "" {
		if _, err := os.Stat(snapshot); err == nil {
			start := time.Now()
			oracle, err := loadSnapshot(g, method, methodSet, snapshot)
			if err == nil {
				log.Printf("index: loaded %s snapshot %s (%d ints) in %s",
					oracle.Method(), snapshot, oracle.IndexSizeInts(), time.Since(start).Round(time.Millisecond))
				return oracle, nil
			}
			if g == nil {
				return nil, fmt.Errorf("snapshot %s unusable and no -graph to rebuild from: %w", snapshot, err)
			}
			// A corrupt or mismatched snapshot must not brick startup:
			// rebuild (and overwrite it below) instead.
			log.Printf("warning: snapshot %s unusable (%v); rebuilding index", snapshot, err)
		} else if !os.IsNotExist(err) {
			return nil, err
		} else if g == nil {
			return nil, fmt.Errorf("snapshot %s does not exist and no -graph to build from", snapshot)
		}
	}
	start := time.Now()
	oracle, err := reach.Build(g, method, reach.Options{})
	if err != nil {
		return nil, err
	}
	log.Printf("index: built %s (%d ints) in %s",
		oracle.Method(), oracle.IndexSizeInts(), time.Since(start).Round(time.Millisecond))
	if snapshot != "" {
		if err := oracle.SaveFile(snapshot); err != nil {
			// A failed save must not stop serving; the build already succeeded.
			log.Printf("warning: saving snapshot %s: %v", snapshot, err)
		} else {
			log.Printf("index: saved snapshot to %s", snapshot)
		}
	}
	return oracle, nil
}
