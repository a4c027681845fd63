#!/usr/bin/env bash
# Regenerates the ten committed paper-reproduction tables (results/*.txt)
# from the larp-bench binaries at their default parameters.
# Usage: scripts/paper_tables.sh [--check]
#   --check  then fails if any table differs from the committed copy.
# The tables must not depend on kernel dispatch: run it once as is and once
# under LARP_KERNELS=scalar.
set -euo pipefail
cd "$(dirname "$0")/.."

TABLES=(
  headline_stats table2_vm1_mse table3_best_predictors
  fig4_selection fig5_selection fig6_vm4_comparison
  ablation_k ablation_nws_window ablation_pca ablation_pool
)

cargo build --release -q -p larp-bench --bins
for t in "${TABLES[@]}"; do
  "./target/release/$t" > "results/$t.txt"
done

if [[ "${1:-}" == "--check" ]]; then
  git diff --exit-code -- 'results/*.txt'
fi
