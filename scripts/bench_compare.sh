#!/usr/bin/env bash
# Compares the repo benchmark (BENCHMARK.json + benchmark/) between a base
# revision and the current checkout, by benchmark/README.md's protocol:
# alternating untraced (-trace 0) pairs of runs, then per workload × end-
# to-end metric the median, IQR and win share of each side and
# BENCHMARK.json's bound check (scripts/benchcmp). Exits 1 when any metric
# regresses past its bound or the new side fails a larger share of ops.
#
#   scripts/bench_compare.sh <base-rev> [workload...]
#
# Workloads default to all four. The new side is the working tree as it is
# (uncommitted changes included), or the revision NEW names. Both sides are
# built the way benchmark/run.sh builds: from source, with GOTOOLCHAIN=local
# and a private build cache; a revision is checked out in a temporary git
# worktree, removed on exit. Environment:
#
#   PAIRS=10           pairs per workload (the order within a pair alternates)
#   BENCH_ARGS=...     extra benchmark flags for both sides, e.g.
#                      "-seconds 10" or "-seed 7 -data-seed 2"
#   NEW=<rev>          benchmark this revision instead of the working tree
#   KEEP=1             keep the scratch directory (binaries, per-run logs)
#
# One 25 s watdiv_uncached pair takes about a minute; the default run of
# four workloads × 10 pairs takes close to an hour.
set -euo pipefail

if [ $# -lt 1 ]; then
	awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"
	exit 2
fi
base_rev=$1
shift
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	workloads=(watdiv_uncached lubm_scan zipf_rw offline)
fi
pairs=${PAIRS:-10}
read -r -a bench_args <<<"${BENCH_ARGS:-}"

root=$(git rev-parse --show-toplevel)
cd "$root"
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-compare.XXXXXX")
cleanup() {
	for t in "$work/base" "$work/new"; do
		[ -d "$t" ] && git worktree remove --force "$t" >/dev/null 2>&1
	done
	if [ -n "${KEEP:-}" ]; then
		echo "bench-compare: kept $work" >&2
	else
		rm -rf "$work"
	fi
	git worktree prune
}
trap cleanup EXIT

export GOTOOLCHAIN=local GOCACHE="$work/gocache" GOTMPDIR="$work/tmp"
mkdir -p "$work/tmp" "$work/results"

# Detached worktrees of the revisions under test.
git worktree add --quiet --detach "$work/base" "$base_rev"
base_dir=$work/base
new_dir=$root
if [ -n "${NEW:-}" ]; then
	git worktree add --quiet --detach "$work/new" "$NEW"
	new_dir=$work/new
fi
for side in base new; do
	dir=base_dir
	[ "$side" = new ] && dir=new_dir
	echo "bench-compare: building $side from ${!dir}" >&2
	(cd "${!dir}" && go build -o "$work/bench-$side" ./benchmark)
done

# run <side> <workload> <pair>: one untraced window in the side's checkout
# (the benchmark reads BENCHMARK.json from its working directory). A failed
# op makes the benchmark exit 1; its result line still counts.
run() {
	local dir=base_dir
	[ "$1" = new ] && dir=new_dir
	local out="$work/results/$1.$2.$3"
	(cd "${!dir}" && "$work/bench-$1" -workload "$2" -trace 0 -dir "$work/data-$1" \
		${bench_args[@]+"${bench_args[@]}"} >"$out.log" 2>&1) || true
	tail -n 1 "$out.log" >"$out.json"
	echo "bench-compare: $2 pair $3 $1: $(tail -n 1 "$out.log" | cut -c1-120)" >&2
}

for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$w" "$i"
			run new "$w" "$i"
		else
			run new "$w" "$i"
			run base "$w" "$i"
		fi
	done
done

echo "== bench-compare: $base_rev vs ${NEW:-working tree}, $pairs pairs${BENCH_ARGS:+, $BENCH_ARGS}"
go run ./scripts/benchcmp -spec BENCHMARK.json -results "$work/results"
