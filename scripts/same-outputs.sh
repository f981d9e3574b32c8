#!/usr/bin/env bash
# Byte-identity of the program's outputs, parent against change: the
# evidence a change that claims "same behaviour, same numbers" rests on.
#
#   BASE=HEAD bash scripts/same-outputs.sh     (or: make same-outputs BASE=HEAD)
#
# BASE (default HEAD) is extracted with `git archive` into
# .bench_build/base-<sha>/, as scripts/bench-pairs.sh does; the change is
# the checkout this script is run from, uncommitted edits included. Both
# sides build their own kddfigs and kddcheck and run
#
#   kddfigs -scale 0.02 -backend kdd
#   kddfigs -scale 0.02 -backend lsraid
#   kddcheck -ci
#
# into .bench_build/same-outputs/{base,change}/. Every figure file and
# kddcheck's stdout are then compared byte for byte; the one line masked is
# ALL.txt's `generated <timestamp>` header. Any difference is printed and
# the script exits non-zero. J (default 2) is kddfigs' -j, the number of
# experiments run at once.
set -euo pipefail

base="${BASE:-HEAD}"
j="${J:-2}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
sha="$(git rev-parse --verify "$base^{commit}")"
basedir="$root/.bench_build/base-$sha"
if [ ! -f "$basedir/go.mod" ]; then
	mkdir -p "$basedir"
	git archive "$sha" | tar -x -C "$basedir"
fi

out="$root/.bench_build/same-outputs"
rm -rf "$out"

# outputs <side> <dir>: build the side's commands and write its outputs.
outputs() {
	local dest="$out/$1"
	mkdir -p "$dest/bin"
	(cd "$2" && go build -o "$dest/bin/" ./cmd/kddfigs ./cmd/kddcheck)
	for backend in kdd lsraid; do
		echo "$1: kddfigs -scale 0.02 -backend $backend" >&2
		"$dest/bin/kddfigs" -scale 0.02 -backend "$backend" -j "$j" -o "$dest/figs-$backend" > /dev/null
		sed -i 's/ — generated .*$/ — generated (masked)/' "$dest/figs-$backend/ALL.txt"
	done
	echo "$1: kddcheck -ci" >&2
	"$dest/bin/kddcheck" -ci > "$dest/kddcheck-ci.txt"
	rm -rf "$dest/bin"
}

outputs base "$basedir"
outputs change "$root"

if diff -r "$out/base" "$out/change"; then
	echo "same-outputs: every output byte-identical to $sha"
else
	echo "same-outputs: outputs differ from $sha" >&2
	exit 1
fi
