#!/bin/bash
# Paired benchmark runs of a parent commit against the working tree: the
# procedure the north star defines a performance claim by.
#
#   scripts/paired.sh PARENT [--workload W] [--pairs 10] [--seconds 10]
#                            [--trace 0|1] [--seed 1] [--out DIR]
#
# PARENT is any commit; its committed files are exported with git archive
# into a temporary directory, the change side is the working tree this
# script sits in, and each side builds and runs its own benchmark through
# its own benchmark/run.sh. Each side first runs one unrecorded 0.5 s pass
# of the workload. Pair i runs the change first when i is odd and the parent
# first when it is even. Without --workload every workload in
# BENCHMARK.json runs, each its own set of pairs.
#
# Every run keeps its result line (<out>/<workload>/{parent,change}-NN.json),
# its full output (.log), the result wrapped as the report benchmark -compare
# reads (.report.json) and the share of CPU time stolen from the VM while it
# ran (.steal, from /proc/stat). For each workload and end-to-end metric
# the script prints both medians, the change's wins over the pairs, the
# parent's interquartile range and the verdict; then one line per
# benchmark row (the run logs' "row NAME median X ms" lines): the median
# over the parent's runs of that row's per-run median, the same over the
# change's runs, and the change in per cent, so the rows that moved and
# the rows that did not read off one command; then benchmark -compare's
# regression check of the same runs. A gain is claimed only as the north
# star defines it: at least ten pairs, the change better in at least nine
# tenths of them, and the medians apart by more than the parent's IQR. The
# last line is "verdict: no gain claimed" or "verdict: gain claimed on ...".
# A traced pass (--trace 1) reports per-layer metrics only, so its table
# has no end-to-end lines, and its rows include the sequential and barrier
# reference rows.
# The exit status is 0 whenever every run completed.
set -euo pipefail

usage() {
	echo "usage: scripts/paired.sh PARENT [--workload W] [--pairs N] [--seconds S] [--trace 0|1] [--seed N] [--out DIR]" >&2
	exit 2
}

[ $# -ge 1 ] || usage
parent=$1
shift
workload="" pairs=10 seconds=10 traced=0 seed=1 out=""
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) traced=$2 ;;
	--seed) seed=$2 ;;
	--out) out=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $traced =~ ^[01]$ ]] || usage

change=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$change" rev-parse --verify "$parent^{commit}")
[ -n "$out" ] || out=$(mktemp -d "${TMPDIR:-/tmp}/paired.XXXXXX")
mkdir -p "$out"
out=$(cd "$out" && pwd)
parentdir=$(mktemp -d "${TMPDIR:-/tmp}/paired-parent.XXXXXX")
trap 'rm -rf "$parentdir"' EXIT
git -C "$change" archive --format=tar "$rev" | tar -x -C "$parentdir"

if [ -n "$workload" ]; then
	workloads=$workload
else
	workloads=$(jq -r '.workloads[].name' "$change/BENCHMARK.json")
fi
defs=$(jq -c '.end_to_end' "$change/BENCHMARK.json")

# cpu_times prints the aggregate cpu line's total and steal jiffies.
cpu_times() {
	awk '$1 == "cpu" { t = 0; for (i = 2; i <= NF; i++) t += $i; print t, $9; exit }' /proc/stat
}

# run_side SIDE DIR WORKLOAD N runs one pass of WORKLOAD in DIR's checkout.
run_side() {
	local side=$1 dir=$2 w=$3 n=$4 base t0 s0 t1 s1
	base="$out/$w/$side-$n"
	read -r t0 s0 < <(cpu_times)
	if ! (cd "$dir" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$traced") >"$base.log" 2>&1; then
		echo "paired: $side run $n of $w failed; see $base.log" >&2
		exit 1
	fi
	read -r t1 s1 < <(cpu_times)
	tail -n 1 "$base.log" >"$base.json"
	jq -c --arg w "$w" '{schema: "crossinv-benchmark/v1", end_to_end: [],
		measured: [{workload: $w, attempted: .attempted, failed: .failed, metrics: .metrics}]}' "$base.json" >"$base.report.json"
	awk -v dt=$((t1 - t0)) -v ds=$((s1 - s0)) 'BEGIN { printf "%.4f\n", (dt > 0 ? ds / dt : 0) }' >"$base.steal"
}

gains=()
for w in $workloads; do
	mkdir -p "$out/$w"
	# One unrecorded 0.5 s pass per side first: the first run after the
	# export and the builds reads markedly slower, and would always be
	# pair 1's change run.
	for side in change parent; do
		dir=$change
		[ $side = change ] || dir=$parentdir
		(cd "$dir" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 0.5 --trace "$traced") >"$out/$w/$side-warmup.log" 2>&1 ||
			{ echo "paired: $side warm-up of $w failed; see $out/$w/$side-warmup.log" >&2; exit 1; }
	done
	for i in $(seq 1 "$pairs"); do
		n=$(printf %02d "$i")
		if [ $((i % 2)) -eq 1 ]; then
			run_side change "$change" "$w" "$n"
			run_side parent "$parentdir" "$w" "$n"
		else
			run_side parent "$parentdir" "$w" "$n"
			run_side change "$change" "$w" "$n"
		fi
		echo "$w pair $n: steal parent $(cat "$out/$w/parent-$n.steal"), change $(cat "$out/$w/change-$n.steal")" >&2
	done

	runs=() a=() b=()
	for i in $(seq 1 "$pairs"); do
		n=$(printf %02d "$i")
		runs+=("$out/$w/parent-$n.json" "$out/$w/change-$n.json")
		a+=("$out/$w/parent-$n.report.json")
		b+=("$out/$w/change-$n.report.json")
	done

	echo "== $w: $pairs pairs, $seconds s windows, trace $traced, seed $seed, parent ${rev:0:12}"
	table=$(jq -r -s --argjson defs "$defs" '
		def q(p): sort as $s | ($s | length) as $n
			| if $n == 1 then $s[0]
			  else (p * ($n - 1)) as $h | ($h | floor) as $lo
			  | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]) end;
		[range(0; length; 2) as $k | {p: .[$k], c: .[$k + 1]}] as $pairs
		| ($pairs | length) as $n
		| ["metric", "parent_median", "change_median", "parent_iqr", "wins", "verdict"],
		  ($defs[] as $m
		   | select([$pairs[] | .p, .c | .metrics[$m.name]] | all(. != null))
		   | (if $m.better == "higher" then 1 else -1 end) as $dir
		   | [$pairs[].p.metrics[$m.name].value] as $pv
		   | [$pairs[].c.metrics[$m.name].value] as $cv
		   | ([$pairs[] | (.c.metrics[$m.name].value - .p.metrics[$m.name].value) * $dir | select(. > 0)] | length) as $wins
		   | ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm
		   | (($pv | q(0.75)) - ($pv | q(0.25))) as $iqr
		   | [$m.name, $pm, $cm, $iqr, "\($wins)/\($n)",
		      (if $n >= 10 and $wins * 10 >= 9 * $n and ($cm - $pm) * $dir > $iqr then "gain"
		       elif $n < 10 then "no claim (fewer than 10 pairs)"
		       else "no gain" end)]),
		  ["failed", ([$pairs[].p.failed] | add), ([$pairs[].c.failed] | add), "", "", "of \([$pairs[].p.attempted] | add) / \([$pairs[].c.attempted] | add) attempted"]
		| @tsv' "${runs[@]}")
	awk -F'\t' '{
		if (NR == 1 || $1 == "failed") printf "%-12s %14s %14s %12s %7s  %s\n", $1, $2, $3, $4, $5, $6
		else printf "%-12s %14.4f %14.4f %12.4f %7s  %s\n", $1, $2, $3, $4, $5, $6
	}' <<<"$table"
	for m in $(awk -F'\t' '$6 == "gain" { print $1 }' <<<"$table"); do
		gains+=("$w $m")
	done

	echo "-- rows (median over the runs of each run's row median, ms):"
	for side in parent change; do
		for i in $(seq 1 "$pairs"); do
			awk -v s=$side '$1 == "row" && $3 == "median" { print s, $2, $4 }' "$out/$w/$side-$(printf %02d "$i").log"
		done
	done | jq -R -r -s '
		def med: sort as $s | ($s | length) as $n
			| if $n == 0 then null
			  elif $n % 2 == 1 then $s[($n - 1) / 2]
			  else ($s[$n / 2 - 1] + $s[$n / 2]) / 2 end;
		[split("\n")[] | select(length > 0) | split(" ") | {side: .[0], row: .[1], v: (.[2] | tonumber)}]
		| group_by(.row)[]
		| ([.[] | select(.side == "parent") | .v] | med) as $p
		| ([.[] | select(.side == "change") | .v] | med) as $c
		| [.[0].row, ($p // "-"), ($c // "-"),
		   (if $p != null and $c != null and $p > 0 then ($c - $p) / $p * 100 else "-" end)]
		| @tsv' |
		awk -F'\t' '{
			printf "%-44s", $1
			for (i = 2; i <= 3; i++) if ($i == "-") printf " %10s", "-"; else printf " %10.4f", $i
			if ($4 == "-") print "        -"; else printf " %+8.1f%%\n", $4
		}'

	# -compare reads every workload, so it reports the others missing and
	# exits 1; only this workload's lines are kept.
	echo "-- benchmark -compare (parent = A, change = B):"
	"$change/.bench_build/crossinv-benchmark" -compare "$(IFS=,; echo "${a[*]}")" "$(IFS=,; echo "${b[*]}")" |
		awk -v w="$w" 'NR == 1 || $1 == w' || true
done

echo "runs kept in $out"
if [ ${#gains[@]} -eq 0 ]; then
	echo "verdict: no gain claimed"
else
	echo "verdict: gain claimed on $(IFS=,; echo "${gains[*]}")"
fi
