#!/usr/bin/env bash
# Builds the e2ebench harness from source and runs it with the given flags:
#
#   bash e2ebench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, daemon state directories, span traces) stays under
# .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build/e2ebench"
mkdir -p "$work/gocache" "$work/tmp" "$work/config" "$work/gopath"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/e2ebench" && go build -o "$work/e2ebench" .)
exec "$work/e2ebench" -workdir "$work" "$@"
