#!/usr/bin/env bash
# Builds ecl-benchmark (release) and runs it. The build finishes before
# any clock starts; workloads run one after another, never concurrently.
#
#   bash benchmark/run.sh                      all workloads, then one traced run
#   bash benchmark/run.sh --list               workload names
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash benchmark/run.sh --seed N [--seconds S]   all workloads with that seed
#
# The last line of a single-workload run's standard output is the result
# object. Exits non-zero when a run reports correct = false.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$HERE/../target}
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml"
BIN=$CARGO_TARGET_DIR/release/ecl-benchmark

case " $* " in
  *" --list "*) exec "$BIN" --list ;;
  *" --workload "*) exec "$BIN" "$@" --out-dir "$HERE/out" ;;
esac

for workload in $("$BIN" --list); do
  "$BIN" --workload "$workload" "$@" --trace 0 --out-dir "$HERE/out" \
    || { echo "FAILED: $workload reported correct = false (or did not finish)" >&2; exit 1; }
done
"$BIN" --workload batch-road "$@" --trace 1 --out-dir "$HERE/out" \
  || { echo "FAILED: the traced run reported correct = false (or did not finish)" >&2; exit 1; }
