#!/bin/bash
# run.sh builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace files go under .bench_build/ in that root (or $CARGO_TARGET_DIR
# when set), so nothing is written outside the checkout. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero before printing any result.
set -eu

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
