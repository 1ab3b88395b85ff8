#!/usr/bin/env bash
# Run the benchmark once per seed on each workload, append each result
# to a JSON-lines file, and summarise median, quartiles and spread
# against the bounds in BENCHMARK.json. Run from the repository root:
#
#   bash perfbench/spread.sh RUNS.jsonl "build_1600 wire_400" "$(seq 1 10)" [EARLIER.jsonl]
#
# With EARLIER.jsonl (an earlier set of runs) the summary also shows how
# far each median moved. Each run's full report is appended to
# RUNS.jsonl.log. A run that exits non-zero (1: an operation
# failed, 2: set-up error) is recorded with its exit
# code and no result, and the sweep goes on; the summary counts it.
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
runs="$1"
workloads="$2"
seeds="$3"
earlier="${4:-}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
for w in $workloads; do
    for s in $seeds; do
        out="$(bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0)"
        code=$?
        printf '== %s seed %s exit %s\n%s\n' "$w" "$s" "$code" "$out" >> "$runs.log"
        result=null
        if [ "$code" -eq 0 ]; then
            result="$(printf '%s\n' "$out" | tail -n 1)"
        fi
        printf '{"workload": "%s", "seed": %s, "exit": %s, "result": %s}\n' \
            "$w" "$s" "$code" "$result" >> "$runs"
        echo "$w seed $s exit $code" >&2
    done
done
"$CARGO_TARGET_DIR/release/perfbench" summarize BENCHMARK.json "$runs" ${earlier:+"$earlier"}
