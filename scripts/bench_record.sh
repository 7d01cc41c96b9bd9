#!/usr/bin/env bash
# Records the benchmark of record: perfbench's untraced run of every
# workload at seeds 1, 2 and 3, at the run_seconds BENCHMARK.json sets,
# printed to standard output as one JSON document,
#
#   {"runs":[{"meta":{…},"result":{…}},…]}
#
# where each meta and result is perfbench's own line, unmodified. Run
# from anywhere:
#
#   scripts/bench_record.sh > BENCH_$(date +%F).json
#   go run ./cmd/novabench -compare BENCH_<date>.json,fresh.json
#
# A run whose outputs fail their check stops the script with perfbench's
# non-zero status.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
if [ -z "$seconds" ]; then
	echo "bench_record: no run_seconds in $root/BENCHMARK.json" >&2
	exit 1
fi

sep='{"runs":['
for workload in best-cold greedy-cold serve-mix; do
	for seed in 1 2 3; do
		out=$(bash "$root/perfbench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
		printf '%s\n{"meta":%s,"result":%s}' "$sep" "$(sed -n 's/^meta //p' <<<"$out")" "$(tail -n 1 <<<"$out")"
		sep=','
	done
done
printf '\n]}\n'
