#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload random-sparse --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain
# settings) stays under .bench_build in the current directory. The build
# fails, and nothing is run, when the repository's source is missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if [ ! -f "$out/config/go/telemetry/mode" ]; then
	go telemetry off
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
