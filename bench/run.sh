#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build and module caches, the go command's own state,
# the binary, and the sampled-span JSONL of traced runs.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"

GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config" \
GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local \
	go build -C bench -o "$out/kddbench" .

exec "$out/kddbench" "$@"
