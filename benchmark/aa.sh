#!/usr/bin/env bash
# A/A check: two interleaved sets (A, B) of RUNS full runs of the same
# build, each run with its own seed, compared with the benchmark's own
# bounds. Writes AA.md (the comparison table) and ledger/PR15.json (set
# A) next to this script. Exits non-zero when the sets disagree.
#
#   bash benchmark/aa.sh [RUNS]        RUNS >= 3, default 3
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
RUNS=${1:-3}
[ "$RUNS" -ge 3 ] || { echo "aa.sh: RUNS must be at least 3" >&2; exit 2; }
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$HERE/../target}
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml"
BIN=$CARGO_TARGET_DIR/release/ecl-benchmark

OUT=$HERE/out/aa
rm -rf "$OUT"
for i in $(seq 1 "$RUNS"); do
  for workload in $("$BIN" --list); do
    "$BIN" --workload "$workload" --seed $((2 * i - 1)) --trace 0 --out-dir "$OUT/A" | tail -n 1
    "$BIN" --workload "$workload" --seed $((2 * i)) --trace 0 --out-dir "$OUT/B" | tail -n 1
  done
done

mkdir -p "$HERE/ledger"
"$BIN" --collect "$OUT/A" "$HERE/ledger/PR15.json"
"$BIN" --collect "$OUT/B" "$OUT/B.json"
{
  echo "# A/A: two interleaved sets of $RUNS runs per workload, same build"
  echo
  echo "Host: $(nproc) CPUs, $(uname -sr). Set A uses the odd seeds 1..$((2 * RUNS - 1)), set B the even ones."
  echo "Spread is the interquartile range of set A's runs over their median, the quartiles taken as"
  echo "Python's statistics.quantiles(values, n=4) takes them; a cell fails when B's median is worse"
  echo "than A's by more than the metric's bound."
  echo
  "$BIN" --compare "$HERE/ledger/PR15.json" "$OUT/B.json"
} > "$HERE/AA.md" && status=0 || status=$?
cat "$HERE/AA.md"
exit "$status"
