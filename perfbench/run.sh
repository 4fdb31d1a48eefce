#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload pp-stream --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and everything else the toolchain writes go
# under .bench_build at the checkout root. The build needs the repository's
# go.mod one directory up; without it the build fails and so does this script.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
cd "$root"
exec "$build/perfbench" "$@"
