#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ (inside the checkout, Go build
# cache included) and runs it from the checkout's root. All arguments go
# to the program: see bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
# Stamp the commit into the binary where the checkout is a git repository
# git will answer for; build unstamped where it is not.
(cd "$here" && { go build -o "$build/codecdb-bench" . 2>/dev/null || go build -buildvcs=false -o "$build/codecdb-bench" .; })
cd "$root"
exec "$build/codecdb-bench" "$@"
