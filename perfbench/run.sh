#!/usr/bin/env bash
# Builds the GRAFICS benchmark from the sources of the checkout it is run
# from, then runs it with every argument passed through:
#
#   bash perfbench/run.sh --workload read-3b --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. The build cache, the binary and the
# benchmark's scratch state all live under .bench_build in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep every file the toolchain writes inside the checkout, and never
# reach for the network: the module has no dependencies to download.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
