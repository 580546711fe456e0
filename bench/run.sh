#!/bin/sh
# Builds hmcbench from this checkout's source and runs it with the given
# flags, e.g. from the repository root:
#
#   sh bench/run.sh --workload gups-spread --seed 0 --seconds 8 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build at the repository root, and the toolchain is kept offline.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/hmcbench" ./hmcbench
exec "$out/hmcbench" "$@"
