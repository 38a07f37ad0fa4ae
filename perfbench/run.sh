#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it, passing every argument on. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the span logs of traced runs all stay
# under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans" "$@"
