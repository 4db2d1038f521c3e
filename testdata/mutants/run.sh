#!/usr/bin/env bash
# run.sh scores the test suite against the committed mutants: every
# testdata/mutants/NAME.patch is a small deliberate fault, and the test
# its header names must catch it. A patch starts with three header
# lines, which git apply skips:
#
#   # Mutant: what the fault is
#   # Packages: the go test package patterns to run (e.g. ./internal/rtree)
#   # Kills: the -run pattern of the test that must fail
#
# The tree (tracked and untracked files, not ignored ones) is copied
# once to a temporary directory. For each mutant the named test must
# pass on the copy, the patch must apply, the test must then fail, and
# the patch is reverted before the next one. The run fails if a patch
# no longer applies, the named test matches nothing or fails unmutated,
# or a mutant survives.
#
# Usage: bash testdata/mutants/run.sh [NAME...]   (default: every patch)
set -uo pipefail

root=$(git rev-parse --show-toplevel) || exit 2
go=${GO:-go}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(cd "$root" && git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -cf -) | tar -C "$work" -xf - || exit 2

if [ $# -gt 0 ]; then
	patches=()
	for n in "$@"; do patches+=("$root/testdata/mutants/$n.patch"); done
else
	patches=("$root"/testdata/mutants/*.patch)
fi

bad=0 killed=0
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	pkgs=$(sed -n 's/^# Packages: //p' "$p")
	kills=$(sed -n 's/^# Kills: //p' "$p")
	if [ ! -f "$p" ] || [ -z "$pkgs" ] || [ -z "$kills" ]; then
		echo "FAIL $name: missing patch or its Packages/Kills header"
		bad=1
		continue
	fi
	# shellcheck disable=SC2086 # pkgs is a list of package patterns
	out=$(cd "$work" && $go test -count=1 -v -run "$kills" $pkgs 2>&1)
	if [ $? -ne 0 ] || ! grep -q '^--- PASS' <<<"$out"; then
		echo "FAIL $name: $kills does not run and pass on the unmutated tree"
		echo "$out" | tail -20
		bad=1
		continue
	fi
	if ! (cd "$work" && git apply "$p"); then
		echo "FAIL $name: patch no longer applies"
		bad=1
		continue
	fi
	# shellcheck disable=SC2086
	out=$(cd "$work" && $go test -count=1 -v -run "$kills" $pkgs 2>&1)
	status=$?
	(cd "$work" && git apply -R "$p") || { echo "FAIL $name: patch does not revert"; exit 2; }
	if [ $status -eq 0 ]; then
		echo "FAIL $name: survived ($kills passed with the mutant applied)"
		bad=1
	elif ! grep -q '^--- FAIL' <<<"$out"; then
		echo "FAIL $name: the mutant does not build, so it shows nothing"
		echo "$out" | tail -20
		bad=1
	else
		echo "ok   $name: killed by $kills"
		killed=$((killed + 1))
	fi
done
echo "$killed of ${#patches[@]} mutants killed"
exit $bad
