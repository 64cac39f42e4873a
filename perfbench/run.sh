#!/usr/bin/env bash
# Builds the benchmark runner from the sources of the checkout this script
# sits in, then runs it with the given arguments from the checkout root.
# Everything the build writes (binary, Go build cache and temporary files,
# the go command's telemetry counters) stays under .bench_build/ in the
# checkout, and no user-level go env file is read.
#
#   bash perfbench/run.sh --workload route-sb18 --seed 1 --seconds 25 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= GOENV=off XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
