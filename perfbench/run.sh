#!/usr/bin/env bash
# Build the deployed `litsearch` binary and the benchmark from source,
# then run one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload build_1600 --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); scratch
# files and traces to perfbench/out. The last line of standard output is
# the result object.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p litsearch --bin litsearch 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --litsearch "$CARGO_TARGET_DIR/release/litsearch" "$@"
