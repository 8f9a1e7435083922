#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload count-ba20k --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build, cache and temporary file
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
