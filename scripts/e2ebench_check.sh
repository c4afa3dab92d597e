#!/usr/bin/env bash
# Correctness runs of the end-to-end benchmark against pinned digests.
# For each row of scripts/e2ebench_digests.tsv (workload, seed, seconds,
# digest) the release e2ebench binary runs the workload untraced, then
# traced. The run fails when the untraced run's `[digest …]` stderr line
# differs from the pinned digest; e2ebench itself fails a traced run whose
# digest differs from the untraced one, and any failed operation or guard.
# The pins hold at any CATDB_THREADS. A change that is meant to alter a
# workload's outputs updates its row, with the reason in the commit.
#
# Usage: scripts/e2ebench_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PINS=scripts/e2ebench_digests.tsv
ERR="$(mktemp)"
trap 'rm -f "$ERR"' EXIT

while IFS=$'\t' read -r workload seed seconds want; do
  if [ "$workload" = workload ]; then continue; fi # header
  for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      2> "$ERR" || { cat "$ERR" >&2; exit 1; }
    cat "$ERR" >&2
    if [ "$trace" = 0 ]; then
      got="$(sed -n 's/^\[digest \([0-9a-f]*\);.*/\1/p' "$ERR")"
      if [ "$got" != "$want" ]; then
        echo "$workload seed $seed: digest '$got' differs from the pinned $want ($PINS)" >&2
        exit 1
      fi
    fi
  done
done < "$PINS"
echo "e2ebench digests match $PINS"
