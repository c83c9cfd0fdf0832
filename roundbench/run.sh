#!/usr/bin/env bash
# Builds the round benchmark from this checkout's sources and runs it.
#
#   bash roundbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run leave behind (Go build cache, binary,
# round-state files) stays under .bench_build/ at the checkout root; the
# Go toolchain is kept offline and off the user's config and cache dirs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/roundbench" && go build -o "$out/roundbench" .)
exec "$out/roundbench" -state-root "$out/state" -source-root "$root" "$@"
