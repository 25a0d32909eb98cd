#!/usr/bin/env bash
# loc.sh prints the Go code lines of every package of the root module:
# lines of non-test .go files that are neither blank nor comment-only
# (a "//" line or a line inside a /* */ block), one row per package
# directory, then the module total. The nested benchmark module and
# build outputs are not counted.
#
#   make loc
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
find . -name '*.go' ! -name '*_test.go' \
	! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
	xargs -0 awk '
	FNR == 1 { block = 0; dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir); if (dir == "") dir = "." }
	{
		line = $0
		gsub(/^[ \t]+|[ \t]+$/, "", line)
		if (block) { if (line ~ /\*\//) block = 0; next }
		if (line == "" || line ~ /^\/\//) next
		if (line ~ /^\/\*/) { if (line !~ /\*\//) block = 1; next }
		n[dir]++; total++
	}
	END {
		for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%6d  total\n", total
	}'
