#!/usr/bin/env bash
# Builds the fsbench binary from the checkout it is run in, then runs it with
# the given flags. Run from the repository root:
#
#   bash fsbench/run.sh --workload fig14a-8core --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory. Outside a
# full checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/fsbench" && go build -o "$build/fsbench" .)
exec "$build/fsbench" --out "$build/fsbench-trace" "$@"
