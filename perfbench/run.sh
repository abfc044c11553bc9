#!/usr/bin/env bash
# Builds the benchmark and the sigserve binary from the checkout this script
# sits in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload fig2-batch --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout's root. Every build artifact and cache stays under
# .bench_build/ in the checkout; the last line of standard output is the JSON
# result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
go build -o "$build/sigserve" ./cmd/sigserve >&2

exec "$build/perfbench" -sigserve "$build/sigserve" -traces "$build/traces" -commit "$commit" "$@"
