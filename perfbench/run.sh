#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the root of
# the checkout; every argument is passed on:
#
#   bash perfbench/run.sh --workload serve-miss --seed 3 --seconds 10 --trace 0
#
# The Go build cache, the binary and the run's scratch files all live under
# .bench_build/ in the checkout, so nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .); then
	echo "run.sh: building the benchmark failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
