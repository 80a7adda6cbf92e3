#!/usr/bin/env bash
# A/A check: runs every workload `runs` times a side, alternating the sides,
# each pair on its own seed, then compares the two sets with the benchmark's
# own bounds. Usage: bash bench/aa.sh [runs=5] [first-seed=101] [seconds=20]
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-5}" seed="${2:-101}" seconds="${3:-20}"
a="bench/out/aa-A" b="bench/out/aa-B"
rm -rf "$a" "$b"
for w in count_heavy match_stream point_open ingest_mixed; do
  for ((i = 0; i < runs; i++)); do
    first="$a" second="$b"
    if ((i % 2)); then first="$b" second="$a"; fi
    for side in "$first" "$second"; do
      bash bench/run.sh --workload "$w" --seed "$((seed + i))" --seconds "$seconds" --trace 0 --save "$side" >/dev/null
    done
  done
done
bench/out/bin/hgload --compare "$a" "$b"
