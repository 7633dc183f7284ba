#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with
# the given arguments (see README.md). Build outputs and the Go caches
# stay under .bench_build at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
