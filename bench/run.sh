#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source into
# .bench_build/ at the root of the checkout and runs it from that root.
# Every file the Go toolchain writes (build cache, temp, telemetry) is kept
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false \
	go build -C "$root/bench" -ldflags "-X main.commit=$commit" -o "$build/kset-bench" .
cd "$root"
exec "$build/kset-bench" "$@"
