#!/usr/bin/env bash
# check_run_patterns.sh fails when a test pattern in the Makefile silently
# matches nothing. For every `$(GO) test` line it takes the -run pattern (or
# the -bench / -fuzz pattern, where -run only switches plain tests off) and
# requires that the whole pattern lists at least one test, benchmark,
# example or fuzz target under `go test -list` in each package the line
# runs, and that each top-level `|` alternative lists one in some package.
#
# Usage: scripts/check_run_patterns.sh [Makefile]   (GO overrides the go binary)
set -euo pipefail
set -f # tokens of a Makefile line are not globs

makefile=${1:-Makefile}
GO=${GO:-go}
declare -A listed # package -> its top-level test names, one per line
status=0

list() { # list PKG: fill listed[PKG] once
	if [[ -z ${listed[$1]+set} ]]; then
		listed[$1]=$("$GO" test -list . "$1" | grep -E '^(Test|Benchmark|Example|Fuzz)' || true)
	fi
}

flag_value() { # flag_value FLAG LINE: the flag's argument, quotes stripped
	sed -nE "s/.*[[:space:]]$1[[:space:]]+('([^']*)'|([^[:space:]']+)).*/\2\3/p" <<<"$2"
}

while IFS= read -r line; do
	if [[ $line == *" -bench "* ]]; then
		pat=$(flag_value -bench "$line")
	elif [[ $line == *" -fuzz "* ]]; then
		pat=$(flag_value -fuzz "$line")
	else
		pat=$(flag_value -run "$line")
	fi
	pkgs=()
	for tok in $line; do
		if [[ $tok == . || $tok == ./* ]]; then
			pkgs+=("$tok")
			list "$tok"
		fi
	done
	for pkg in "${pkgs[@]}"; do
		if ! grep -qE -- "$pat" <<<"${listed[$pkg]}"; then
			echo "check-run-patterns: '$pat' matches no test in $pkg" >&2
			status=1
		fi
	done
	[[ $pat == *"("* ]] && continue # alternatives nest: the whole-pattern check stands
	IFS='|' read -ra alts <<<"$pat"
	((${#alts[@]} > 1)) || continue
	for alt in "${alts[@]}"; do
		found=0
		for pkg in "${pkgs[@]}"; do
			if grep -qE -- "$alt" <<<"${listed[$pkg]}"; then
				found=1
				break
			fi
		done
		if [[ $found == 0 ]]; then
			echo "check-run-patterns: '$alt' (of '$pat') matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E '\$\(GO\) test .*-(run|bench|fuzz) ' "$makefile")
exit $status
