package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	reach "repro"
	"repro/internal/fleet"
	"repro/internal/mux"
	"repro/internal/server"
)

// replicas is the fleet size: one replica per core of the 2-core host
// the benchmark was tuned on.
const replicas = 2

// system is one set-up copy of the stack under test.
type system struct {
	snapPath string
	oracles  []*reach.Oracle
	servers  []*server.Server
	muxSrvs  []*mux.Server
	muxAddrs []string
	httpSrvs []*http.Server
	router   *fleet.Router
	base     string
	cancel   context.CancelFunc
}

// setupTimes splits one set-up into the layers it crosses.
type setupTimes struct {
	total, build, save time.Duration
	load               time.Duration // mean per reach.Load call
	indexInts          int64
	snapshotBytes      int64
}

// setUp builds DL from the graph, saves the snapshot, loads it once per
// replica, starts the replicas and the router and waits until the
// router has enrolled every replica. rec, when non-nil, wraps every
// handler and stream listener with span recording.
func setUp(in *inputs, dir string, id int, rec *recorder) (*system, setupTimes, error) {
	var st setupTimes
	sys := &system{snapPath: filepath.Join(dir, fmt.Sprintf("dl-%d.snap", id))}
	start := time.Now()
	built, err := reach.Build(in.g, reach.MethodDL, reach.Options{})
	if err != nil {
		return nil, st, fmt.Errorf("build: %w", err)
	}
	st.build = time.Since(start)
	st.indexInts = built.IndexSizeInts()
	t0 := time.Now()
	if err := built.SaveFile(sys.snapPath); err != nil {
		return nil, st, fmt.Errorf("save: %w", err)
	}
	st.save = time.Since(t0)
	_ = built.Close() // a built oracle holds no mapping
	fi, err := os.Stat(sys.snapPath)
	if err != nil {
		return nil, st, err
	}
	st.snapshotBytes = fi.Size()

	var loadTotal time.Duration
	for i := 0; i < replicas; i++ {
		t0 := time.Now()
		o, err := reach.Load(sys.snapPath)
		if err != nil {
			sys.close()
			return nil, st, fmt.Errorf("load: %w", err)
		}
		loadTotal += time.Since(t0)
		sys.oracles = append(sys.oracles, o)
	}
	st.load = loadTotal / replicas
	if err := sys.startFleet(rec); err != nil {
		sys.close()
		return nil, st, err
	}
	st.total = time.Since(start)
	return sys, st, nil
}

// startFleet serves every loaded oracle as a replica (HTTP plus a mux
// listener, as reachd -mux-addr does) and fronts them with a router
// built from default settings.
func (sys *system) startFleet(rec *recorder) error {
	var bases []string
	for _, o := range sys.oracles {
		muxLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s := server.New(o.Graph(), o, server.Config{MuxAddr: muxLn.Addr().String()})
		sys.servers = append(sys.servers, s)
		ms := s.NewMuxServer(func(string, ...any) {})
		sys.muxSrvs = append(sys.muxSrvs, ms)
		sys.muxAddrs = append(sys.muxAddrs, muxLn.Addr().String())
		var h http.Handler = s.Handler()
		if rec != nil {
			muxLn = rec.wrapListener(muxLn)
			h = rec.wrapHTTP(spanReplicaHTP, h)
		}
		go ms.Serve(muxLn)
		base, err := sys.serve(h)
		if err != nil {
			return err
		}
		bases = append(bases, base)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sys.cancel = cancel
	rt, err := fleet.New(ctx, fleet.Config{Replicas: bases, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	sys.router = rt
	var h http.Handler = rt.Handler()
	if rec != nil {
		h = rec.wrapHTTP(spanRouter, h)
	}
	if sys.base, err = sys.serve(h); err != nil {
		return err
	}
	return sys.waitEnrolled()
}

// serve starts an HTTP server for h on a loopback port.
func (sys *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	sys.httpSrvs = append(sys.httpSrvs, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// waitEnrolled polls the router's healthz until every replica is in.
func (sys *system) waitEnrolled() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(sys.base + "/v1/healthz")
		if err == nil {
			var hz fleet.RouterHealthz
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err == nil && hz.ReplicasHealthy == replicas {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router enrolled fewer than %d replicas in 10s (last error: %v)", replicas, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every server and goroutine the system started and waits
// for the mux servers to drain.
func (sys *system) close() {
	for _, hs := range sys.httpSrvs {
		hs.Close()
	}
	if sys.router != nil {
		sys.router.Close()
	}
	if sys.cancel != nil {
		sys.cancel()
	}
	for _, ms := range sys.muxSrvs {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the router is gone: force-close rather than drain
		_ = ms.Shutdown(ctx)
	}
	for _, s := range sys.servers {
		s.Close()
	}
	for _, o := range sys.oracles {
		_ = o.Close()
	}
	_ = os.Remove(sys.snapPath)
}
