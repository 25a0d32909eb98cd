#!/usr/bin/env bash
# fma-scan.sh checks that the byte-pinned artifacts (FIGURES.txt,
# ABLATIONS.txt, every -json record) are the same on every GOARCH. Go
# may fuse x*y+z into one fused multiply-add on arm64, ppc64le and
# riscv64, which rounds once instead of twice, so a fused line on the
# artifact path can print different digits there than on amd64, whose
# default GOAMD64=v1 has no such instruction. The script cross-compiles
# ./internal/... for those three architectures with the assembly listing
# on and fails on any fused instruction outside the real NAS kernels,
# whose results are checked by verification tolerances rather than byte
# pins. An explicit float64(...) conversion of the product rounds it and
# prevents the fusion.
#
#   make fma-scan
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
allow='komp/internal/nas/(block|adi|cg|ep|ft|lu|is|mg)\.go:'
listing=$(mktemp)
trap 'rm -f "$listing"' EXIT

status=0
for arch in arm64 ppc64le riscv64; do
	if ! GOOS=linux GOARCH=$arch go build -trimpath -gcflags=-S ./internal/... 2>"$listing"; then
		cat "$listing" >&2
		exit 1
	fi
	fused=$(grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]' "$listing" |
		grep -oE '\([^)]*:[0-9]+\)' | tr -d '()' | sort -u |
		grep -vE "$allow" || true)
	if [ -n "$fused" ]; then
		echo "fma-scan: fused multiply-add on the artifact path ($arch):"
		echo "$fused" | sed 's/^/  /'
		status=1
	fi
done
[ "$status" -eq 0 ] && echo "fma-scan: no fused multiply-add outside the NAS kernels (arm64, ppc64le, riscv64)"
exit "$status"
