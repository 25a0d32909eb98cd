#!/usr/bin/env bash
# reach.sh fails on code that no program runs. It builds every main
# package of the root module and of the nested benchmark module with
# inlining off (-gcflags=all=-l, so a called function keeps its symbol),
# takes the functions the linker kept from `go tool nm`, and compares
# them with the non-test func declarations of the root module's source,
# each named the way the linker names it: pkg.F, pkg.T.M or pkg.(*T).M,
# where pkg is the package name (komp for the root package) or, for a
# main package, its directory (cmd/nas). A main package's functions are
# looked up in its own binary only. Type parameters are dropped from
# both sides; init functions are not compared.
#
# A declared function that no binary links fails the run unless a line
# of scripts/reach-keep.txt matches it. Each keep line is
# "pattern<TAB>reason": pattern is a bash glob over the names above
# (a "*" inside "(*T)" is harmless: it matches the literal star too),
# reason opens with its category, (a) to (d) or (deferred), as the
# file's header defines them. A keep line that matches no
# unreached function also fails the run, so the list cannot go stale.
# Binaries land in .bench_build/reach/ (gitignored).
#
#   make reach
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
out=$root/.bench_build/reach
keep=$root/scripts/reach-keep.txt
rm -rf "$out"
mkdir -p "$out/bin"
module=$(go list -m)

# Build every main package; dir "benchmark" is the nested module's.
mains=$(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./...)
mains="$mains $(go list -C benchmark -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./...)"
for dir in $mains; do
	rel=${dir#"$root"/}
	bin=$out/bin/${rel//\//_}
	go build -C "$dir" -gcflags=all=-l -o "$bin" .
	# Linked functions: text symbols of this module, type parameters
	# stripped, main.F renamed to <dir>.F so each binary keeps its own.
	go tool nm "$bin" | awk -v mod="$module" -v rel="$rel" '
	match($0, / [Tt] /) {
		s = substr($0, RSTART + 3)
		if (index(s, "main.") == 1) s = rel "." substr(s, 6)
		else if (index(s, mod ".") == 1) s = "komp." substr(s, length(mod) + 2)
		else if (index(s, mod "/") == 1) { s = substr(s, length(mod) + 2); sub(/^[^.]*\//, "", s) }
		else next
		out = ""; depth = 0
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "[") depth++
			else if (c == "]") depth--
			else if (depth == 0) out = out c
		}
		print out
	}' >>"$out/linked.raw"
done
sort -u "$out/linked.raw" >"$out/linked.txt"

# Declared functions: the non-test files of each package as go list
# selects them (build constraints applied), gofmt layout assumed.
go list -f '{{.Dir}}|{{.ImportPath}}|{{.Name}}|{{join .GoFiles " "}}' ./... |
	while IFS='|' read -r dir path name files; do
		if [ "$name" = main ]; then
			pkg=${dir#"$root"/}
		elif [ "$path" = "$module" ]; then
			pkg=komp
		else
			pkg=${path##*/}
		fi
		for f in $files; do
			awk -v pkg="$pkg" '
			/^func \(/ {
				recv = $0
				sub(/^func \(/, "", recv); sub(/\).*/, "", recv); sub(/\[.*/, "", recv)
				n = split(recv, parts, " "); typ = parts[n]
				rest = $0; sub(/^func \([^)]*\) */, "", rest)
				match(rest, /^[A-Za-z_0-9]+/)
				m = substr(rest, 1, RLENGTH)
				if (substr(typ, 1, 1) == "*") print pkg ".(" typ ")." m
				else print pkg "." typ "." m
				next
			}
			/^func [A-Za-z_0-9]/ {
				match($0, /^func [A-Za-z_0-9]+/)
				f = substr($0, 6, RLENGTH - 5)
				if (f != "init") print pkg "." f
			}' "$dir/$f"
		done
	done | sort -u >"$out/declared.txt"

comm -23 "$out/declared.txt" "$out/linked.txt" >"$out/unreached.txt"

# Match unreached functions against the keep list.
patterns=()
while IFS=$'\t' read -r pat reason; do
	case $pat in '' | '#'*) continue ;; esac
	if ! [[ ${reason:-} =~ ^\(([a-d]|deferred)\)\  ]]; then
		echo "reach: keep line without a (a)-(d) or (deferred) reason: $pat" >&2
		exit 2
	fi
	patterns+=("$pat")
done <"$keep"

status=0
declare -A used
while read -r fn; do
	kept=0
	for pat in "${patterns[@]}"; do
		# shellcheck disable=SC2053 # pat is a glob on purpose
		if [[ $fn == $pat ]]; then
			used[$pat]=1
			kept=1
		fi
	done
	if [ "$kept" -eq 0 ]; then
		echo "reach: $fn is linked into no binary and not in scripts/reach-keep.txt"
		status=1
	fi
done <"$out/unreached.txt"
for pat in "${patterns[@]}"; do
	if [ -z "${used[$pat]:-}" ]; then
		echo "reach: keep pattern matches no unreached function: $pat"
		status=1
	fi
done

echo "reach: $(wc -l <"$out/declared.txt") declared, $(wc -l <"$out/unreached.txt") linked into no binary, ${#patterns[@]} keep lines"
exit $status
