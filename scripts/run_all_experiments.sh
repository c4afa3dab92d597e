#!/usr/bin/env bash
# Regenerate every table and figure of the paper's evaluation.
# Usage: scripts/run_all_experiments.sh [flags...]
# Every flag (e.g. --quick --seed 3) is passed to each binary unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
  fig9_profiling
  fig10_metadata
  tab2_errors
  tab4_refinement
  tab5_cleaning
  tab6_runtime
  fig11_iterations
  fig12_cost
  tab7_single
  fig13_tokens
  tab8_e2e
  fig14_robustness
)

cargo build --release -p catdb-bench
mkdir -p results
for bin in "${BINS[@]}"; do
  echo "==> $bin"
  ./target/release/"$bin" "$@" | tee "results/$bin.txt"
done
echo "All experiment outputs are under results/"
