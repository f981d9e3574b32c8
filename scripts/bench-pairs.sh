#!/usr/bin/env bash
# Paired runs of the repository's benchmark, parent against change — the
# protocol of the choosing-metrics guide, section 8, that every perf PR
# has to follow:
#
#   WORKLOAD=zipf_plane_fit N=10 BASE=HEAD bash scripts/bench-pairs.sh
#
# WORKLOAD=all runs the pairs for every workload of BENCHMARK.json, one
# after the other, on the same seeds.
#
# BASE (default HEAD) is extracted with `git archive` into
# .bench_build/base-<sha>/ and built there by its own bench/run.sh; the
# change is the checkout this script is run from, uncommitted edits
# included. Each of the N (default 10) pairs runs both sides on one fresh
# seed (SEED0+i, default 101+i; pick seeds not used while writing the
# change), alternating which side goes first. For every end-to-end metric
# of BENCHMARK.json, scripts/pairs-verdict.awk prints both sides'
# quartiles, how many pairs the change won, lost and tied, the metric's
# bound, the change of the median in per cent, and a verdict (better,
# worse, "worse (inside bound)", same or unresolved; the rule is stated
# there), and appends the same rows to BENCH_harness.json as one
# trajectory entry per workload. Earlier entries keep their bytes, so
# `git diff BENCH_harness.json` shows added lines only; restore the file
# after a run whose entries are not meant to be committed.
#
# Raw per-run values land in .bench_build/pairs-<workload>.tsv.
set -euo pipefail

workloads="${WORKLOAD:?set WORKLOAD to a workload name from BENCHMARK.json, or to all}"
n="${N:-10}"
base="${BASE:-HEAD}"
seed0="${SEED0:-101}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
sha="$(git rev-parse --verify "$base^{commit}")"
# The change is the working tree: HEAD, marked when it has edits of its own
# (the trajectory's own appends aside).
change="$(git rev-parse HEAD)"
if [ -n "$(git status --porcelain -- . ':(exclude)BENCH_harness.json')" ]; then
	change="$change+worktree"
fi
basedir="$root/.bench_build/base-$sha"
if [ ! -d "$basedir/bench" ]; then
	mkdir -p "$basedir"
	git archive "$sha" | tar -x -C "$basedir"
fi

if [ "$workloads" = all ]; then
	workloads="$(awk '/"workloads"/ { inside = 1 } inside && /^  \]/ { inside = 0 }
		inside && /"name"/ { split($0, f, "\""); print f[4] }' BENCHMARK.json)"
fi

# run <side> <dir> <pair> <seed>: one benchmark run of $workload; appends
# "side pair metric value" for every "name value unit" line it prints.
run() {
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$4" --trace 0) |
		awk -v side="$1" -v pair="$3" 'NF == 3 && $1 ~ /^[a-z0-9_]+$/ && $2 ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ { print side "\t" pair "\t" $1 "\t" $2 }' >> "$raw"
}

for workload in $workloads; do
	raw="$root/.bench_build/pairs-$workload.tsv"
	: > "$raw"
	for i in $(seq 1 "$n"); do
		seed=$((seed0 + i))
		if [ $((i % 2)) -eq 1 ]; then
			run base "$basedir" "$i" "$seed"
			run change "$root" "$i" "$seed"
		else
			run change "$root" "$i" "$seed"
			run base "$basedir" "$i" "$seed"
		fi
		echo "$workload: pair $i/$n (seed $seed) done" >&2
	done

	TZ=UTC printf -v now '%(%Y-%m-%dT%H:%M:%SZ)T' -1
	echo "# bench-pairs workload=$workload pairs=$n base=$sha seeds=$((seed0 + 1))..$((seed0 + n))"
	awk -v workload="$workload" -v base="$sha" -v change="$change" -v seed0="$seed0" \
		-v time="$now" -v trajectory="$root/BENCH_harness.json" \
		-f scripts/pairs-verdict.awk BENCHMARK.json "$raw"
done
