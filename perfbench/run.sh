#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root: bash perfbench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>. Build outputs, the Go build cache and the
# deployment's files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
