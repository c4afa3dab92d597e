#!/usr/bin/env bash
# DAG executor smoke: one multi-step generated pipeline run at
# CATDB_THREADS 1 and 8, then:
#   (a) both runs are byte-identical on stdout (the final pipeline
#       code) — DAG scheduling leaks no thread count into results,
#   (b) --dag-out writes a JSON step DAG with nodes and edges.
# Used directly as a CI gate (any violated assertion exits nonzero).
set -uo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo build -q --release -p catdb-serve --bin catdb

# A small mixed-type dataset: two numerics with gaps, two categoricals,
# a binary target — enough surface for a multi-step generated pipeline.
awk 'BEGIN {
  print "age,income,city,plan,churn"
  for (i = 0; i < 400; i++) {
    age = (i % 11 == 0) ? "" : 20 + (i * 7) % 50
    income = (i % 13 == 0) ? "" : 20000 + (i * 137) % 60000
    city = (i % 3 == 0) ? "york" : ((i % 3 == 1) ? "leeds" : "bath")
    plan = (i % 2 == 0) ? "basic" : "pro"
    churn = ((i * 29) % 97 < 48) ? "no" : "yes"
    print age "," income "," city "," plan "," churn
  }
}' > "$TMP/churn.csv"

run_catdb() { # $1 threads, $2 stdout file, extra args...
  local threads="$1" out="$2"
  shift 2
  CATDB_THREADS="$threads" ./target/release/catdb run \
    --csv "$TMP/churn.csv" --target churn --task binary \
    --seed 7 "$@" > "$out" 2> "$out.err"
}

for threads in 1 8; do
  if ! run_catdb "$threads" "$TMP/run-$threads.out"; then
    echo "dag_smoke: run failed at $threads thread(s)" >&2
    cat "$TMP/run-$threads.out.err" >&2
    exit 1
  fi
done
if ! diff "$TMP/run-1.out" "$TMP/run-8.out" > /dev/null; then
  echo "dag_smoke: stdout at 8 threads diverged from 1 thread" >&2
  diff "$TMP/run-1.out" "$TMP/run-8.out" >&2 || true
  exit 1
fi

if [ ! -s "$TMP/run-1.out" ]; then
  echo "dag_smoke: run produced no pipeline code on stdout" >&2
  exit 1
fi

if ! run_catdb 8 "$TMP/export.out" --dag-out "$TMP/dag.json"; then
  echo "dag_smoke: run with --dag-out failed" >&2
  cat "$TMP/export.out.err" >&2
  exit 1
fi
if ! grep -q '"nodes"' "$TMP/dag.json" || ! grep -q '"deps"' "$TMP/dag.json"; then
  echo "dag_smoke: --dag-out did not write a step DAG with nodes and deps" >&2
  cat "$TMP/dag.json" >&2 || true
  exit 1
fi

echo "dag_smoke: ok (stdout byte-identical at CATDB_THREADS 1 and 8; DAG exported)"
