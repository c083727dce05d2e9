#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout this script sits in
# and runs it from the checkout root with the given arguments:
#
#   bash perfbench/run.sh --workload advise --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, binary, daemon journals, span
# dumps) stays under .bench_build in the checkout.
set -euo pipefail
checkout="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$checkout"
out="$checkout/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -work "$out/work" -spans "$out/spans" "$@"
