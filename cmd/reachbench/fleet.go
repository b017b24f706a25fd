package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	reach "repro"
	"repro/internal/fleet"
	"repro/internal/mux"
	"repro/internal/server"
)

// localFleet self-hosts a replicated serving stack inside the benchmark
// process: the index is built (or snapshot-loaded) ONCE, saved as a
// snapshot, and mmap-loaded N times — one immutable mapping per replica,
// exactly how a production fleet ships one snapshot file to N machines.
// Each replica serves real HTTP on a loopback port and an in-process
// fleet router fronts them, so the closed-loop numbers include every
// wire hop a distributed fleet pays except the network itself. Comparing
// -replicas 1 against a plain -serve run isolates the router's overhead;
// raising -replicas shows the scatter-gather scaling.
type localFleet struct {
	base     string
	servers  []*server.Server
	oracles  []*reach.Oracle
	router   *fleet.Router
	httpSrvs []*http.Server
	muxSrvs  []*mux.Server
	snapTmp  string // temp snapshot path to remove, if we created one
	stopOnce sync.Once
}

// startLocalFleet builds the snapshot and brings up n replicas + router.
// noObservers strips the observer fast path from every replica (and from
// the build), so a -no-observers run measures the pure index path — the
// end-to-end half of the ablation story. useMux gives every replica a
// loopback stream-transport listener (advertised via healthz, so the
// router negotiates it exactly as a production fleet would); false keeps
// all router→replica traffic on HTTP.
func startLocalFleet(graphPath, snapPath, method string, n int, noObservers, useMux bool) (*localFleet, error) {
	if graphPath == "" {
		return nil, fmt.Errorf("-replicas requires -graph (the fleet needs a graph to build its snapshot from)")
	}
	lf := &localFleet{}
	ok := false
	defer func() {
		if !ok {
			lf.stop()
		}
	}()

	// Build once; every replica will mmap this one artifact.
	snap := snapPath
	if snap == "" {
		f, err := os.CreateTemp("", "reachbench-fleet-*.snap")
		if err != nil {
			return nil, err
		}
		f.Close()
		snap, lf.snapTmp = f.Name(), f.Name()
	}
	if _, err := os.Stat(snap); err != nil || snapPath == "" {
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		g, _, err2 := reach.ReadGraph(f)
		f.Close()
		if err2 != nil {
			return nil, err2
		}
		start := time.Now()
		oracle, err2 := reach.Build(g, reach.Method(method), reach.Options{NoObservers: noObservers})
		if err2 != nil {
			return nil, err2
		}
		if err2 := oracle.SaveFile(snap); err2 != nil {
			oracle.Close()
			return nil, err2
		}
		fmt.Printf("fleet: built %s index in %s, snapshot %s\n",
			oracle.Method(), time.Since(start).Round(time.Millisecond), snap)
		oracle.Close()
	}

	var bases []string
	for i := 0; i < n; i++ {
		oracle, err := reach.Load(snap)
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		if noObservers {
			// Load rebuilds the stack when the snapshot lacks the section
			// (e.g. a pre-existing -snapshot file), so disable explicitly.
			oracle.DisableObservers()
		}
		lf.oracles = append(lf.oracles, oracle)
		g := oracle.Graph()
		cfg := server.Config{OrigIDs: g.OrigIDs()}
		// Bind the stream-transport listener before server.New so healthz
		// advertises the kernel-assigned port, mirroring reachd -mux-addr.
		var muxLn net.Listener
		if useMux {
			muxLn, err = net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			cfg.MuxAddr = muxLn.Addr().String()
		}
		s := server.New(g, oracle, cfg)
		lf.servers = append(lf.servers, s)
		if muxLn != nil {
			ms := s.NewMuxServer(func(string, ...any) {})
			lf.muxSrvs = append(lf.muxSrvs, ms)
			go ms.Serve(muxLn)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: s.Handler()}
		lf.httpSrvs = append(lf.httpSrvs, hs)
		go hs.Serve(ln)
		bases = append(bases, "http://"+ln.Addr().String())
	}

	rt, err := fleet.New(context.Background(), fleet.Config{
		Replicas:      bases,
		ProbeInterval: 200 * time.Millisecond,
		Logf:          func(string, ...any) {}, // probes are noise in a bench run
	})
	if err != nil {
		return nil, err
	}
	lf.router = rt
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rhs := &http.Server{Handler: rt.Handler()}
	lf.httpSrvs = append(lf.httpSrvs, rhs)
	go rhs.Serve(rln)
	lf.base = "http://" + rln.Addr().String()

	// The router enrolls replicas asynchronously; wait until its healthz
	// says the whole fleet is in.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(lf.base + "/v1/healthz")
		if err == nil {
			var hz fleet.RouterHealthz
			okResp := resp.StatusCode == http.StatusOK
			err = jsonDecode(resp, &hz)
			if okResp && err == nil && hz.ReplicasHealthy == n {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("fleet: %d mmap replicas + router at %s\n", n, lf.base)
	ok = true
	return lf, nil
}

func jsonDecode(resp *http.Response, into any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}

func (lf *localFleet) stop() {
	lf.stopOnce.Do(func() {
		for _, hs := range lf.httpSrvs {
			hs.Close()
		}
		if lf.router != nil {
			lf.router.Close()
		}
		for _, ms := range lf.muxSrvs {
			// Force-close: the router (the only client) is gone already.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ms.Shutdown(ctx)
		}
		for _, s := range lf.servers {
			s.Close()
		}
		for _, o := range lf.oracles {
			o.Close()
		}
		if lf.snapTmp != "" {
			os.Remove(lf.snapTmp)
		}
	})
}
