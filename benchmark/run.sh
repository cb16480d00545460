#!/usr/bin/env bash
# The driver's entry point: build the benchmark from source into
# .bench_build/ at the checkout root, then run it with the driver's
# arguments. `go run ./benchmark` does the same with the user's own cache.
#
# Everything the build reads or writes besides the Go toolchain itself is
# pinned inside the checkout, so it behaves the same whatever surrounds it:
# build cache, module cache and the compiler's work directory live under
# .bench_build/; the user's `go env -w` file, a go.work or a .git in a
# parent directory, toolchain switching, the module proxy and telemetry are
# all switched off.
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f go.mod ] || { echo "benchmark/run.sh: $PWD holds no go.mod: the benchmark builds from the repository's source" >&2; exit 1; }
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GO111MODULE=on
export GOFLAGS="-buildvcs=false"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
go build -o "$build/shoggoth-benchmark" ./benchmark
exec "$build/shoggoth-benchmark" "$@"
