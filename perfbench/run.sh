#!/usr/bin/env bash
# Builds cacheserver and the benchmark program from the checkout it is run
# in, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_zipf --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cacheserver" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/cacheserver and perfbench/ not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config" "$build/bin" "$build/run"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/cacheserver" ./cmd/cacheserver
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -server "$build/bin/cacheserver" -workdir "$build/run" "$@"
