#!/usr/bin/env bash
# Builds the benchmark from source and runs one invocation of it:
#
#   bash perfbench/run.sh --workload sim-lifetime --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything it writes (the Go build cache,
# the binary, the service's state dirs) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
