#!/usr/bin/env bash
# Paired runs of the repository's benchmark, parent against change — the
# protocol of the choosing-metrics guide, section 8, that every perf PR
# has to follow:
#
#   WORKLOAD=zipf_plane_fit N=10 BASE=HEAD bash scripts/bench-pairs.sh
#
# BASE (default HEAD) is extracted with `git archive` into
# .bench_build/base-<sha>/ and built there by its own bench/run.sh; the
# change is the checkout this script is run from, uncommitted edits
# included. Each of the N (default 10) pairs runs both sides on one fresh
# seed (SEED0+i, default 101+i; pick seeds not used while writing the
# change), alternating which side goes first. For every end-to-end metric
# of BENCHMARK.json it prints both sides' quartiles and medians, how many
# pairs the change won, lost and tied, and a verdict:
#
#   better / worse   the side won at least nine tenths of the pairs (ties
#                    count for neither) and the medians differ by more
#                    than the parent's own interquartile distance
#   same             every pair tied (a count that repeats exactly)
#   unresolved       anything else: the spread exceeds the difference
#
# Raw per-run values land in .bench_build/pairs-<workload>.tsv.
set -euo pipefail

workload="${WORKLOAD:?set WORKLOAD to a workload name from BENCHMARK.json}"
n="${N:-10}"
base="${BASE:-HEAD}"
seed0="${SEED0:-101}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
sha="$(git rev-parse --verify "$base^{commit}")"
basedir="$root/.bench_build/base-$sha"
if [ ! -d "$basedir/bench" ]; then
	mkdir -p "$basedir"
	git archive "$sha" | tar -x -C "$basedir"
fi

raw="$root/.bench_build/pairs-$workload.tsv"
: > "$raw"

# run <side> <dir> <pair> <seed>: one benchmark run; appends
# "side pair metric value" for every "name value unit" line it prints.
run() {
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$4" --trace 0) |
		awk -v side="$1" -v pair="$3" 'NF == 3 && $1 ~ /^[a-z0-9_]+$/ && $2 ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ { print side "\t" pair "\t" $1 "\t" $2 }' >> "$raw"
}

for i in $(seq 1 "$n"); do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 1 ]; then
		run base "$basedir" "$i" "$seed"
		run change "$root" "$i" "$seed"
	else
		run change "$root" "$i" "$seed"
		run base "$basedir" "$i" "$seed"
	fi
	echo "pair $i/$n (seed $seed) done" >&2
done

echo "# bench-pairs workload=$workload pairs=$n base=$sha seeds=$((seed0 + 1))..$((seed0 + n))"
awk '
function quantile(v, cnt, q,    pos, lo, frac) { # linear interpolation between order statistics
	pos = (cnt - 1) * q + 1; lo = int(pos); frac = pos - lo
	return lo >= cnt ? v[cnt] : v[lo] + frac * (v[lo + 1] - v[lo])
}
function sorted(side, m, out,    i, j, t, cnt) {
	cnt = 0
	for (i = 1; i <= pairs; i++) if ((side, i, m) in val) out[++cnt] = val[side, i, m]
	for (i = 2; i <= cnt; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
	return cnt
}
FNR == NR { # BENCHMARK.json: names and directions of the end-to-end metrics, in order
	if ($0 ~ /"end_to_end"/) inside = 1
	else if (inside && $0 ~ /^  \]/) inside = 0
	if (inside && $0 ~ /"name"/) { split($0, f, "\""); name = f[4]; order[++metrics] = name }
	if (inside && $0 ~ /"better"/) { split($0, f, "\""); better[name] = f[4] }
	next
}
{ val[$1, $2, $3] = $4 + 0; if ($2 + 0 > pairs) pairs = $2 + 0 }
END {
	printf "%-26s %-6s  %36s  %36s  %-14s %s\n", "metric", "better", "base q1 / median / q3", "change q1 / median / q3", "win/loss/tie", "verdict"
	for (k = 1; k <= metrics; k++) {
		m = order[k]
		nb = sorted("base", m, b); nc = sorted("change", m, c)
		if (nb == 0 || nc == 0) continue
		win = loss = tie = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("base", i, m) in val) || !(("change", i, m) in val)) continue
			d = val["change", i, m] - val["base", i, m]
			if (better[m] == "lower") d = -d
			if (d > 0) win++; else if (d < 0) loss++; else tie++
		}
		bq1 = quantile(b, nb, 0.25); bmed = quantile(b, nb, 0.5); bq3 = quantile(b, nb, 0.75)
		cq1 = quantile(c, nc, 0.25); cmed = quantile(c, nc, 0.5); cq3 = quantile(c, nc, 0.75)
		gap = cmed - bmed; if (gap < 0) gap = -gap
		total = win + loss + tie
		verdict = "unresolved"
		if (tie == total) verdict = "same"
		else if (gap > bq3 - bq1 && win * 10 >= total * 9) verdict = "better"
		else if (gap > bq3 - bq1 && loss * 10 >= total * 9) verdict = "worse"
		printf "%-26s %-6s  %10.4g / %10.4g / %10.4g  %10.4g / %10.4g / %10.4g  %4d/%d/%-6d %s\n", m, better[m], bq1, bmed, bq3, cq1, cmed, cq3, win, loss, tie, verdict
	}
}' BENCHMARK.json "$raw"
