#!/usr/bin/env bash
# Builds emuperf from source inside the current checkout and runs it with the
# given arguments. Every build product (binary, Go build cache, telemetry
# and config) stays under .bench_build/, so the benchmark reads and writes
# only inside the checkout. Run it from the repository root:
#
#   bash bench/run.sh --workload emu-migrate --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$out/emuperf" .) >&2
exec "$out/emuperf" "$@"
