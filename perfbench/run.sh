#!/usr/bin/env bash
# Builds perfbench and schemacheck from this checkout's sources and runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim_serial --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the go command's own config
# directory go under $CARGO_TARGET_DIR (default .bench_build), so the
# run writes only inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/schemacheck" ./cmd/schemacheck
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/work" -schemacheck "$out/schemacheck" -schema metrics_schema.json "$@"
