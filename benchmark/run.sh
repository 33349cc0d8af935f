#!/bin/bash
# Builds the benchmark inside the checkout and runs it with the driver's
# arguments. Everything go writes — build cache, module cache, temporary
# files — and everything the benchmark writes stays under .bench_build in
# the directory this is started from, which .gitignore names.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$build/crossinv-benchmark" .
exec "$build/crossinv-benchmark" -scratch "$build/tmp" "$@"
