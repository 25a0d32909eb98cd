#!/usr/bin/env bash
# bench-diff.sh <git-ref> regenerates every deterministic kompbench
# artifact at <git-ref> and at the working tree, and compares each pair
# byte for byte: the -quick figures, every -quick ablation (faults
# included), the -quick profile, and the -json records of the figures
# and of every ablation. It names the first difference of each differing
# artifact and exits non-zero if any differs. Both binaries and all
# outputs land in .bench_build/bench-diff/ (gitignored); stderr, where
# kompbench prints wall-clock timings, is not compared.
#
#   make bench-diff BASE=origin/main
set -euo pipefail

base=${1:?usage: bench-diff.sh <git-ref>}
root=$(git rev-parse --show-toplevel)
out=$root/.bench_build/bench-diff
rm -rf "$out"
mkdir -p "$out/src" "$out/base" "$out/head"

# The base is an export of the ref's tree, not a checkout: nothing is
# registered in the repository, and an interrupted run leaves only files.
git -C "$root" archive "$base" | tar -x -C "$out/src"
(cd "$out/src" && go build -o "$out/base/kompbench" ./cmd/kompbench)
(cd "$root" && go build -o "$out/head/kompbench" ./cmd/kompbench)

ablations=$("$out/head/kompbench" -ablation '?' 2>&1 | awk 'NR > 1 { print $1 }' || true)

# regen <dir> writes every artifact of the binary in <dir> into <dir>.
regen() {
	local d=$1 kb=$1/kompbench
	"$kb" -quick -json "$d/figures.json" >"$d/figures.txt" 2>/dev/null
	"$kb" -quick -ablation all >"$d/ablations.txt" 2>/dev/null
	"$kb" -quick -profile >"$d/profile.txt" 2>/dev/null
	for id in $ablations; do
		"$kb" -quick -ablation "$id" -json "$d/ablation-$id.json" >/dev/null 2>&1
	done
}

regen "$out/base" &
basepid=$!
regen "$out/head"
wait "$basepid"

status=0
for f in "$out"/base/*.txt "$out"/base/*.json; do
	name=$(basename "$f")
	if ! cmp -s "$f" "$out/head/$name"; then
		status=1
		echo "bench-diff: $name differs: $(cmp "$f" "$out/head/$name" 2>&1 | sed 's/^[^:]*: //' || true)"
		diff "$f" "$out/head/$name" | head -6 || true
	fi
done
if [ "$status" -eq 0 ]; then
	echo "bench-diff: every artifact byte-identical to $base"
fi
exit $status
