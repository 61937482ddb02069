#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed on (-workload, -seed, -seconds, -trace). Build
# outputs and the Go build cache stay under .bench_build in the checkout.
set -e
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$here"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off \
		go build -o "$out/xcqlbench" .
) >&2
exec "$out/xcqlbench" "$@"
