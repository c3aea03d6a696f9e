#!/usr/bin/env bash
# Paired benchmark gate: runs every bench/ workload from a checkout of a base
# commit and from this working tree, then compares the two results files.
#
#   bash scripts/bench-ab.sh BASE        # e.g. BASE=origin/main, HEAD~1
#
# Five pairs of 2-second runs (seeds 1-5) alternate which side runs first, so
# host drift and the second-run penalty fall on both sides alike. It fails
# with exit 3 when `bench/run.sh -compare base.json head.json` judges a
# metric worse under BENCHMARK.json's bounds, or when a metric is worse by
# more than its bound in every pair: the seeds change the inputs, so the
# pooled spread can leave even a doubling "unresolved". Needs jq. The base
# checkout is a git worktree under .bench_build/, removed on exit.
set -eu

base=${1:?usage: bash scripts/bench-ab.sh BASE}
root=$(cd "$(dirname "$0")/.." && pwd)
tree="$root/.bench_build/base"
out="$root/.bench_build/ab"
seeds="1 2 3 4 5"
command -v jq >/dev/null || { echo "bench-ab: needs jq" >&2; exit 2; }

cleanup() { git -C "$root" worktree remove --force "$tree" 2>/dev/null || true; }
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach "$tree" "$base" >&2
rm -rf "$out"
mkdir -p "$out"

for seed in $seeds; do
	sides="base head"
	[ $((seed % 2)) -eq 0 ] && sides="head base"
	for side in $sides; do
		dir=$root
		[ "$side" = base ] && dir=$tree
		echo "bench-ab: seed $seed $side" >&2
		bash "$dir/bench/run.sh" --seed "$seed" --seconds 2 --trace 0 --out "$out/$side.json" >/dev/null
	done
done

status=0
bash "$root/bench/run.sh" -compare "$out/base.json" "$out/head.json" || status=$?
for seed in $seeds; do
	for side in base head; do
		jq --argjson s "$seed" '.runs |= map(select(.seed == $s))' "$out/$side.json" >"$out/$side-$seed.json"
	done
	bash "$root/bench/run.sh" -compare "$out/base-$seed.json" "$out/head-$seed.json" 2>/dev/null || true
done | awk -v pairs="$(wc -w <<<"$seeds")" '
	$NF == "worse" && !n[$1 " " $2]++ { keys[++k] = $1 " " $2 }
	END {
		for (i = 1; i <= k; i++) if (n[keys[i]] == pairs) { print keys[i] ": worse in every pair"; bad = 1 }
		exit bad
	}' || status=3
exit "$status"
