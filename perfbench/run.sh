#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
# Run from the repository root. Every build product and Go cache lands in
# .bench_build/ of that checkout, so nothing is written outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -model "$root/perfbench/model.json" "$@"
