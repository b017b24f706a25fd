#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-bulk --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write goes under .bench_build/ there: the Go build cache, the binary,
# temporary snapshots and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# The build needs nothing beyond this checkout and the installed Go
# toolchain, so never look for either elsewhere.
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# Use the module's own directory so its go.mod (which points back at the
# repository through a replace directive) governs the build.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
