#!/usr/bin/env bash
# Determinism + regression gate for one snapshot-writing bench.
#
#   bench/snapshot_gate.sh <bench-binary-dir> <bench> <snapshot.json>
#   e.g. bench/snapshot_gate.sh build/bench table3_controller_vs_default BENCH_table3.json
#
# Runs the bench at --fast with one and with four workers (from inside
# <bench-binary-dir>, where its CSVs land), then requires
#   1. a zero exit from both runs (the robustness benches exit 1 on any
#      invariant violation),
#   2. the two snapshots to be byte-identical (results never depend on
#      --jobs), and
#   3. the four-worker snapshot to match bench/snapshots/<snapshot.json>
#      byte for byte; any drift must arrive as a reviewed snapshot update.
# The first failing check stops the script with a non-zero exit.
set -euo pipefail

if [[ $# -ne 3 ]]; then
    echo "usage: $0 <bench-binary-dir> <bench> <snapshot.json>" >&2
    exit 2
fi
bin_dir=$1
bench=$2
snapshot=$3
committed="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/snapshots/${snapshot}"
if [[ ! -f ${committed} ]]; then
    echo "$0: no committed snapshot ${committed}" >&2
    exit 2
fi

cd "${bin_dir}"
stem=${snapshot%.json}
for jobs in 1 4; do
    echo "== ${bench} --fast --jobs=${jobs}"
    "./${bench}" --fast --jobs="${jobs}" --json="${stem}_j${jobs}.json"
done
cmp "${stem}_j1.json" "${stem}_j4.json"
diff -u "${committed}" "${stem}_j4.json"
echo "== ${bench}: ${snapshot} is jobs-invariant and matches the committed copy"
