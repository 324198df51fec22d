#!/usr/bin/env bash
# Builds the served-query benchmark from this checkout and runs it with
# the given arguments, e.g.
#
#   bash servebench/run.sh --workload hot-count --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
# The go command's caches and its telemetry files stay under $build too.
(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
	cd "$root/servebench" && go build -trimpath -o "$build/servebench" .
)
exec "$build/servebench" --out "$build/servebench-out" "$@"
