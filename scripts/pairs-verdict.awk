# Verdicts of paired benchmark runs, parent ("base") against change, and
# their trajectory entry. scripts/bench-pairs.sh runs it once a workload:
#
#   awk -v workload=W -v base=SHA -v change=REV -v seed0=S -v time=T \
#       -v trajectory=BENCH_harness.json \
#       -f scripts/pairs-verdict.awk BENCHMARK.json pairs-W.tsv
#
# The first file is BENCHMARK.json, read for the names, directions and
# bounds of its end-to-end metrics; the second holds one "side pair metric
# value" line (tab-separated) per metric a run printed, side being base or
# change and pair 1..N (pair i ran on seed seed0+i). For every metric both
# sides printed it writes a table row to stdout: both sides' quartiles,
# how many pairs the change won, lost and tied, the metric's bound, the
# change of the median in per cent, and a verdict:
#
#   better / worse   the side won at least nine tenths of the pairs (ties
#                    count for neither) and the medians differ by more
#                    than the parent's own interquartile distance
#   same             every pair tied (a count that repeats exactly)
#   unresolved       anything else: the spread exceeds the difference
#
# A "worse" median that moved by no more than the metric's bound is
# "worse (inside bound)": the benchmark only rejects a change whose metric
# is worse than the parent's by more than its bound.
#
# The same rows, with time, base, change, workload, pairs and seeds, are
# appended to the trajectory file as one entry of kind "pairs". Every
# earlier entry keeps its bytes: only the closing "  ]" and "}" lines are
# rewritten, after a comma on the line before them. A missing or empty
# file starts a new trajectory.

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

function fail(msg) {
	print "pairs-verdict: " msg > "/dev/stderr"
	exit 1
}

FNR == NR { # BENCHMARK.json: names and directions of the end-to-end metrics, in order
	if ($0 ~ /"end_to_end"/) inside = 1
	else if (inside && $0 ~ /^  \]/) inside = 0
	if (inside && $0 ~ /"name"/) { split($0, f, "\""); name = f[4]; order[++metrics] = name }
	if (inside && $0 ~ /"better"/) { split($0, f, "\""); better[name] = f[4] }
	if (inside && $0 ~ /"bound"/) { split($0, f, ":"); bound[name] = f[2] + 0 }
	next
}

{ val[$1, $2, $3] = $4 + 0; if ($2 + 0 > pairs) pairs = $2 + 0 }

END {
	printf "%-26s %-6s  %36s  %36s  %-14s %6s %8s  %s\n", "metric", "better", "base q1 / median / q3", "change q1 / median / q3", "win/loss/tie", "bound", "median", "verdict"
	rows = 0
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
		# The median change in per cent, and whether a worse median stays
		# inside the bound (bound is a fraction of the parent median).
		pct = bmed != 0 ? 100 * (cmed - bmed) / (bmed < 0 ? -bmed : bmed) : 0
		if (verdict == "worse" && gap <= bound[m] * (bmed < 0 ? -bmed : bmed)) verdict = "worse (inside bound)"
		printf "%-26s %-6s  %10.4g / %10.4g / %10.4g  %10.4g / %10.4g / %10.4g  %4d/%d/%-6d %5.0f%% %+7.2f%%  %s\n", m, better[m], bq1, bmed, bq3, cq1, cmed, cq3, win, loss, tie, 100 * bound[m], pct, verdict
		row[++rows] = sprintf("        {\"name\": \"%s\", \"better\": \"%s\", \"bound\": %.10g, " \
			"\"base_q1\": %.10g, \"base_median\": %.10g, \"base_q3\": %.10g, " \
			"\"change_q1\": %.10g, \"change_median\": %.10g, \"change_q3\": %.10g, " \
			"\"win\": %d, \"loss\": %d, \"tie\": %d, \"median_pct\": %.4f, \"verdict\": \"%s\"}",
			m, better[m], bound[m], bq1, bmed, bq3, cq1, cmed, cq3, win, loss, tie, pct, verdict)
	}
	if (trajectory == "") exit 0
	if (rows == 0) fail("no end-to-end metric on both sides; nothing appended to " trajectory)

	n = 0
	while ((getline line < trajectory) > 0) old[++n] = line
	close(trajectory)
	if (n == 0) { old[1] = "{"; old[2] = "  \"entries\": ["; n = 2 }
	else if (n < 4 || old[n - 1] != "  ]" || old[n] != "}") fail(trajectory " does not end in an entries list; nothing appended")
	else n -= 2
	for (i = 1; i <= n; i++) print old[i] (i == n && old[i] !~ /\[$/ ? "," : "") > trajectory
	seeds = ""
	for (i = 1; i <= pairs; i++) seeds = seeds (i > 1 ? ", " : "") (seed0 + i)
	print "    {" > trajectory
	printf "      \"time\": \"%s\",\n      \"kind\": \"pairs\",\n", time > trajectory
	printf "      \"base\": \"%s\",\n      \"change\": \"%s\",\n", base, change > trajectory
	printf "      \"workload\": \"%s\",\n      \"pairs\": %d,\n", workload, pairs > trajectory
	printf "      \"seeds\": [%s],\n      \"metrics\": [\n", seeds > trajectory
	for (i = 1; i <= rows; i++) print row[i] (i < rows ? "," : "") > trajectory
	print "      ]\n    }\n  ]\n}" > trajectory
	close(trajectory)
}
