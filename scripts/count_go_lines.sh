#!/bin/sh
# Prints the repository's non-test Go line count: every *.go file
# except *_test.go, cmd/ and examples/ included, perfbench/ (the
# benchmark harness, its own module) excluded. Hidden directories are
# skipped, so build caches such as .bench_build/ never count.
#
#   sh scripts/count_go_lines.sh
#
# Informational only: it always exits 0 when the count succeeds.
set -eu
cd "$(dirname "$0")/.."
find . \( -name '.?*' -o -path ./perfbench \) -prune -o \
	-type f -name '*.go' ! -name '*_test.go' -print |
	xargs cat | wc -l | tr -d ' '
