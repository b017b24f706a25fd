// Command reachbench regenerates the tables and figures of Jin & Wang,
// "Simple, Fast, and Scalable Reachability Oracle" (VLDB 2013) on the
// synthetic dataset catalog.
//
// Usage:
//
//	reachbench -experiment table2 [-scale 16] [-queries 100000] [-methods DL,HL,GL] [-v]
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 fig3 fig4
// small (tables 2-4 + fig3), large (tables 5-7 + fig4), or all.
//
// With -serve it instead load-tests a running reachd daemon in a closed
// loop and reports end-to-end queries/sec, p50/p99 request latency, and
// the share of requests shed by the daemon's admission gate (429):
//
//	reachbench -serve http://localhost:8080 -graph g.txt [-clients 8] [-batch 512] [-duration 10s]
//
// -serve drives a daemon that is already running, a reachd or a
// reachrouter in front of a fleet; perfbench/ is the repository's
// self-hosted fleet benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (table1..table7, fig3, fig4, small, large, all)")
		scale      = flag.Int("scale", dataset.DefaultScale, "divisor applied to large dataset sizes")
		queries    = flag.Int("queries", workload.DefaultQueries, "queries per workload")
		methods    = flag.String("methods", "", "comma-separated method subset (default: all 12)")
		seed       = flag.Int64("seed", 1, "workload and randomized-build seed")
		verbose    = flag.Bool("v", false, "log per-dataset progress to stderr")
		serve      = flag.String("serve", "", "load-test a running reachd at this base URL instead of running experiments")
		graphFile  = flag.String("graph", "", "edge-list file the server loaded, to sample real vertex IDs (with -serve)")
		clients    = flag.Int("clients", 8, "concurrent load-generator clients (with -serve)")
		batch      = flag.Int("batch", 512, "pairs per /v1/batch request (with -serve)")
		duration   = flag.Duration("duration", 10*time.Second, "load-generation time (with -serve)")
	)
	flag.Parse()

	if *serve != "" {
		lg := &loadGen{
			base:     strings.TrimRight(*serve, "/"),
			graph:    *graphFile,
			clients:  *clients,
			batch:    *batch,
			duration: *duration,
			seed:     *seed,
		}
		if err := lg.run(); err != nil {
			fmt.Fprintf(os.Stderr, "reachbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.Config{Scale: *scale, Queries: *queries, Seed: *seed}
	if *methods != "" {
		for _, m := range strings.Split(*methods, ",") {
			cfg.Methods = append(cfg.Methods, strings.TrimSpace(m))
		}
	}
	if *verbose {
		cfg.Verbose = os.Stderr
	}

	if err := run(*experiment, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "reachbench: %v\n", err)
		os.Exit(1)
	}
}

func run(experiment string, cfg bench.Config) error {
	out := os.Stdout
	runOne := func(id string) error {
		switch id {
		case "table1":
			return bench.Table1(out, cfg)
		case "table2":
			return bench.QueryTable(out, "Table 2: query time (ms), equal workload, small graphs", dataset.Small, workload.Equal, cfg)
		case "table3":
			return bench.QueryTable(out, "Table 3: query time (ms), random workload, small graphs", dataset.Small, workload.Random, cfg)
		case "table4":
			return bench.ConstructionTable(out, "Table 4: construction time (ms), small graphs", dataset.Small, cfg)
		case "table5":
			return bench.QueryTable(out, "Table 5: query time (ms), equal workload, large graphs", dataset.Large, workload.Equal, cfg)
		case "table6":
			return bench.QueryTable(out, "Table 6: query time (ms), random workload, large graphs", dataset.Large, workload.Random, cfg)
		case "table7":
			return bench.ConstructionTable(out, "Table 7: construction time (ms), large graphs", dataset.Large, cfg)
		case "fig3":
			return bench.IndexSizeTable(out, "Figure 3: index size (number of integers), small graphs", dataset.Small, cfg)
		case "fig4":
			return bench.IndexSizeTable(out, "Figure 4: index size (number of integers), large graphs", dataset.Large, cfg)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
	}

	switch experiment {
	case "all":
		if err := bench.Table1(out, cfg); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := bench.RunGroup(out, dataset.Small, cfg); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return bench.RunGroup(out, dataset.Large, cfg)
	case "small":
		// One pass per group: every index is built once per dataset and
		// reused across Tables 2-4 and Figure 3.
		return bench.RunGroup(out, dataset.Small, cfg)
	case "large":
		return bench.RunGroup(out, dataset.Large, cfg)
	default:
		return runOne(experiment)
	}
}
