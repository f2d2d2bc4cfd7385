#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind — the binary and the go tool's
# caches — stays in .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# The benchmark is its own module (go.mod beside this file) that
# replaces `multiprio` with the checkout around it, so there is nothing
# to download: keep the go tool offline and on the installed toolchain.
(
	cd "$here"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
		GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/benchmark" .
)

exec "$build/benchmark" -out "$here/out" -decl "$root/BENCHMARK.json" "$@"
