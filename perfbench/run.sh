#!/usr/bin/env bash
# Builds thanosd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload dense-min --seed 1 --seconds 10 --trace 0
#
# Build caches and run artifacts stay under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/thanosd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; go.mod, cmd/thanosd or perfbench/go.mod is missing" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/bin" "$build/home"

# Keep every Go cache, config and telemetry file inside the build
# directory, and never reach for a module proxy or another toolchain.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$build/bin/thanosd" ./cmd/thanosd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

"$build/bin/perfbench" -thanosd "$build/bin/thanosd" -out "$build/out" "$@"
