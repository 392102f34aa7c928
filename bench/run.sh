#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ (inside the checkout, like
# everything else it writes) and runs it with the arguments given.
#
#   bash bench/run.sh --workload lib_query --seed 3 --seconds 30 --trace 0
#
# Run from the checkout root or from anywhere: paths are resolved from this
# file. A directory without the repository's Go packages (only BENCHMARK.json
# and bench/) cannot build, and the script exits non-zero without a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain's caches, temp files and telemetry inside the checkout,
# and never reach for the network or another toolchain.
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
mkdir -p "$HOME"

(cd "$here" && go build -o "$build/lshbench" .)

# Transparent huge pages are in madvise mode on the reference box and the Go
# heap asks for them; the first touch of a fresh 256 MB then stalls in direct
# compaction for anything between 0.1 s and 6 s (measured), which lands on
# set-up, boot and build times at random. disablethp takes that out of the
# measurement on both sides of every comparison.
export GODEBUG=disablethp=1

cd "$root"
exec "$build/lshbench" "$@"
