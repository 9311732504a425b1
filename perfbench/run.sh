#!/usr/bin/env bash
# Builds the benchmark and the nlfl CLI from the tree, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload engine-large --seed 1 --seconds 40 --trace 0
# Run it from the repository root. Every build artifact, the Go build
# cache and Go's temporary files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
here="$root/perfbench"
build="$root/.bench_build"
if [[ ! -f "$here/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/perfbench" .)
(cd "$root" && go build -o "$build/nlfl" ./cmd/nlfl)

commit=unknown
if [[ -d "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --nlfl "$build/nlfl" --commit "$commit" "$@"
