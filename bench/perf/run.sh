#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from bench/perf. This is the "command" of BENCHMARK.json; every argument is
# passed through (see README.md). The binary, the build cache, the go tool's
# scratch space and its per-user state all stay inside the checkout, so a run
# leaves nothing behind elsewhere.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build/tmp"
cd "$here"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/sdfperf" .
exec "$build/sdfperf" "$@"
