#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload graph-bfs --seed 1 --seconds 10 --trace 0
#
# Every build artifact and the Go tool's own state stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build). The simulator is imported
# from the enclosing module through the replace directive in go.mod, so the
# build fails (and no result is printed) when the sources are absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go/home"

export GOCACHE="$build/go/cache"
export GOPATH="$build/go/path"
export GOMODCACHE="$build/go/modcache"
export HOME="$build/go/home"
export XDG_CONFIG_HOME="$build/go/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
