#!/usr/bin/env bash
# End-to-end smoke gates, one shell function each (smoke_<name> below).
# A gate builds what it needs in release mode, drives the `catdb` CLI or
# the paper bench binaries on a generated input, and exits 1 with
# "<name>: <what failed>" and the relevant stderr when a check fails.
#
# Usage: scripts/smoke.sh <name>
#   name: bench chain_cache route serve outofcore dag
set -euo pipefail
cd "$(dirname "$0")/.."

NAMES=(bench chain_cache route serve outofcore dag)
CATDB=./target/release/catdb

usage() {
  echo "usage: scripts/smoke.sh <name>, one of: ${NAMES[*]}" >&2
  exit 2
}

is_gate() {
  local n
  for n in "${NAMES[@]}"; do
    if [ "$n" = "$1" ]; then return 0; fi
  done
  return 1
}
[ $# -eq 1 ] && is_gate "$1" || usage
GATE="$1"

TMP="$(mktemp -d)"
SERVE_PID=
cleanup() {
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2> /dev/null || true; fi
  rm -rf "$TMP"
}
trap cleanup EXIT

# fail <what> [file...]: report the failed check, dump the files (the
# relevant stderr) and exit 1.
fail() {
  echo "$GATE: $1" >&2
  shift
  local f
  for f in "$@"; do
    if [ -f "$f" ]; then
      echo "--- $f" >&2
      cat "$f" >&2
    fi
  done
  exit 1
}

# build <cargo target args...>: one release build. Under `set -e` a failed
# build stops the gate, so a binary left over from an earlier build is
# never the one under test.
build() { cargo build -q --release "$@"; }
build_catdb() { build -p catdb-serve --bin catdb; }

# run_to <what> <out> <cmd...>: stdout to <out>, stderr to <out>.err;
# a non-zero exit fails the gate.
run_to() {
  local what="$1" out="$2"
  shift 2
  if ! "$@" > "$out" 2> "$out.err"; then
    fail "$what: command failed: $*" "$out.err"
  fi
}

# same_stdout <what> <a> <b>: fail with the diff unless a and b match.
same_stdout() {
  if ! diff "$2" "$3" > "$TMP/diff.txt"; then
    fail "$1: stdout differs between the two runs" "$TMP/diff.txt" "$3.err"
  fi
}

# at_threads <n|-> <cmd...>: run cmd with CATDB_THREADS=n; "-" leaves the
# environment as it is.
at_threads() {
  local n="$1"
  shift
  if [ "$n" = - ]; then "$@"; else CATDB_THREADS="$n" "$@"; fi
}

# run_twice_and_diff <what> <prefix> <threads-1> <threads-2> <cmd...>: run
# cmd twice into <prefix>-1.out and <prefix>-2.out (stderr beside each as
# .err) and require byte-identical stdout.
run_twice_and_diff() {
  local what="$1" prefix="$2" t1="$3" t2="$4"
  shift 4
  at_threads "$t1" run_to "$what (first run)" "$prefix-1.out" "$@"
  at_threads "$t2" run_to "$what (second run)" "$prefix-2.out" "$@"
  same_stdout "$what" "$prefix-1.out" "$prefix-2.out"
}

# Fields of the CLI's stderr summary lines, empty when the line is missing.
tokens_field() { sed -n 's/^tokens: \([0-9][0-9]*\) |.*/\1/p' "$1"; }
billed_usd() { sed -n 's/^billed: \([0-9.][0-9.]*\) USD.*/\1/p' "$1"; }
billed_calls() { sed -n 's/^billed: .* USD | \([0-9][0-9]*\) billed call(s).*/\1/p' "$1"; }
cache_hits() { sed -n 's/.*\[llm cache: \([0-9][0-9]*\) hit(s).*/\1/p' "$1"; }

# --- Toy CSVs (deterministic, no checked-in data) -------------------------

# 240 rows: two numerics, a categorical, a 0/1 label.
label_csv() {
  echo "age,income,segment,label"
  for i in $(seq 0 239); do
    echo "$((20 + i % 47)),$((1000 + (i * 37) % 900)).$((i % 10)),s$((i % 5)),$((i % 2))"
  done
}

# 3000 rows of numeric features with thousands of distinct values, so
# split search has real threshold-scanning work to do.
tree_csv() {
  echo "f1,f2,f3,f4,f5,f6,f7,f8,label"
  for i in $(seq 0 2999); do
    a=$((i * 37 % 9973)); b=$((i * 53 % 9967)); c=$((i * 71 % 9949)); d=$((i * 89 % 9941))
    e=$((i * 101 % 9931)); f=$((i * 113 % 9929)); g=$((i * 127 % 9923)); h=$((i * 139 % 9907))
    echo "$a.$((i % 10)),$b.$((i % 7)),$c.$((i % 3)),$d.$((i % 9)),$e.$((i % 8)),$f.$((i % 6)),$g.$((i % 4)),$h.$((i % 5)),$(((a + b) % 2))"
  done
}

# 400 rows: two numerics with gaps, two categoricals, a binary target —
# enough surface for a multi-step generated pipeline.
churn_csv() {
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
  }'
}

# 240 seeded-random rows: two floats, a categorical, a yes/no target.
toy_csv() {
  awk 'BEGIN{srand(7);print "a,b,c,y";for(i=0;i<240;i++){a=rand();b=rand()*10;c=int(rand()*4);
    y=(a+b/10>1.0)?"yes":"no";printf "%.3f,%.3f,cat%d,%s\n",a,b,c,y}}'
}

# --- Gates -----------------------------------------------------------------

# Paper binaries whose --smoke stdout prints no wall-clock cell: datasets,
# the simulated LLM and the fault/retry stack run on seeded RNG and a
# simulated clock. fig9_profiling, fig12_cost, tab6_runtime and tab8_e2e
# print timings and are left out.
smoke_bench() {
  build -p catdb-bench --bins
  local bin
  for bin in fig10_metadata fig11_iterations fig13_tokens fig14_robustness \
             tab2_errors tab4_refinement tab5_cleaning tab7_single; do
    run_twice_and_diff "$bin --smoke" "$TMP/$bin" - - ./target/release/"$bin" --smoke
    echo "[$bin: byte-identical, $(wc -l < "$TMP/$bin-1.out") line(s)]"
  done
  run_twice_and_diff "fig13_tokens --route refine=llama,fix=mini --smoke" "$TMP/fig13-routed" - - \
    ./target/release/fig13_tokens --route refine=llama,fix=mini --smoke
  echo "[fig13_tokens-routed: byte-identical, $(wc -l < "$TMP/fig13-routed-1.out") line(s)]"
}

# The same --beta 3 run twice against one --llm-cache file: the warm run
# must be identical, record >0 cache hits and bill zero tokens.
smoke_chain_cache() {
  build_catdb
  label_csv > "$TMP/smoke.csv"
  run_twice_and_diff "warm run vs cold run" "$TMP/chain" - - \
    "$CATDB" run --csv "$TMP/smoke.csv" --target label --task binary \
    --beta 3 --seed 7 --llm-concurrency 4 --llm-cache "$TMP/cache.jsonl"
  local warm_err="$TMP/chain-2.out.err" hits warm_tokens
  hits="$(cache_hits "$warm_err")"
  warm_tokens="$(tokens_field "$warm_err")"
  if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    fail "warm run recorded no cache hits" "$warm_err"
  fi
  if [ -z "$warm_tokens" ] || [ "$warm_tokens" -ne 0 ]; then
    fail "warm run billed ${warm_tokens:-?} token(s), expected 0" "$warm_err"
  fi
  echo "chain_cache_smoke hits=$hits warm_tokens=$warm_tokens identical=1"
}

# For each --route config, a cold run at CATDB_THREADS 1 and a warm run at
# 8 on a per-config --llm-cache file: identical stdout (routing leaks no
# scheduling order), no billed call when warm (cache keys include the
# routed model), and the cheap routing's cold run bills strictly less.
smoke_route() {
  build_catdb
  label_csv > "$TMP/smoke.csv"
  local cfg route warm_calls strong_usd cheap_usd
  for cfg in strong cheap; do
    case "$cfg" in
      strong) route="refine=gpt-4o,generate=gpt-4o,select=gpt-4o,fix=gpt-4o" ;;
      cheap) route="refine=llama,generate=gpt-4o,select=mini,fix=mini" ;;
    esac
    run_twice_and_diff "$cfg routing, warm run vs cold run" "$TMP/$cfg" 1 8 \
      "$CATDB" run --csv "$TMP/smoke.csv" --target label --task binary \
      --beta 2 --seed 7 --llm-concurrency 4 \
      --route "$route" --llm-cache "$TMP/cache-$cfg.jsonl"
    warm_calls="$(billed_calls "$TMP/$cfg-2.out.err")"
    if [ -z "$warm_calls" ]; then
      fail "$cfg warm run printed no billed-cost line" "$TMP/$cfg-2.out.err"
    fi
    if [ "$warm_calls" -ne 0 ]; then
      fail "$cfg warm run billed $warm_calls upstream call(s), expected 0" "$TMP/$cfg-2.out.err"
    fi
  done
  strong_usd="$(billed_usd "$TMP/strong-1.out.err")"
  cheap_usd="$(billed_usd "$TMP/cheap-1.out.err")"
  if [ -z "$strong_usd" ] || [ -z "$cheap_usd" ]; then
    fail "missing billed-cost line (strong='$strong_usd' cheap='$cheap_usd')" \
      "$TMP/strong-1.out.err" "$TMP/cheap-1.out.err"
  fi
  if ! awk -v cheap="$cheap_usd" -v strong="$strong_usd" 'BEGIN { exit !(cheap + 0 < strong + 0) }'; then
    fail "cheap routing billed $cheap_usd USD, not below strong $strong_usd USD"
  fi
  echo "route: ok (strong=$strong_usd USD, cheap=$cheap_usd USD, warm runs identical and fully cached)"
}

# One daemon on one shared completion cache, two 4-client passes over TCP
# (identical outputs), `catdb run` vs `catdb client` byte for byte at the
# defaults and with a profile mode, a route and a chain set, then a
# token shutdown that must drain the daemon to a clean exit.
smoke_serve() {
  build_catdb
  local port=7317 ready=0 i
  "$CATDB" serve --port "$port" --shutdown-token ci > "$TMP/serve.log" 2>&1 &
  SERVE_PID=$!
  # Check liveness on every probe so a crash before bind fails fast.
  for i in $(seq 1 50); do
    kill -0 "$SERVE_PID" 2> /dev/null || fail "daemon exited before binding" "$TMP/serve.log"
    if "$CATDB" client --port "$port" --dataset wifi --rows 120 \
      --clients 1 --out-dir "$TMP/out-probe" > /dev/null 2>&1; then
      ready=1
      break
    fi
    sleep 0.2
  done
  [ "$ready" -eq 1 ] || fail "daemon never became ready after 50 probes" "$TMP/serve.log"

  for i in 1 2; do
    run_to "4-client pass $i" "$TMP/pass-$i.out" "$CATDB" client --port "$port" \
      --dataset wifi --rows 120 --clients 4 --out-dir "$TMP/out$i"
  done
  if ! diff -r "$TMP/out1" "$TMP/out2" > "$TMP/diff.txt"; then
    fail "the two 4-client passes differ" "$TMP/diff.txt"
  fi

  toy_csv > "$TMP/toy.csv"
  local -a modes=(--profile-mode sketch:64 --route refine=llama,fix=mini --beta 2)
  local -a flags
  for i in defaults modes; do
    flags=(--csv "$TMP/toy.csv" --target y --task binary)
    if [ "$i" = modes ]; then flags+=("${modes[@]}"); fi
    run_to "catdb run ($i)" "$TMP/run.out" "$CATDB" run "${flags[@]}"
    run_to "catdb client ($i)" "$TMP/client.out" "$CATDB" client --port "$port" "${flags[@]}"
    same_stdout "catdb run vs catdb client ($i)" "$TMP/run.out" "$TMP/client.out"
  done

  run_to "shutdown request" "$TMP/shutdown.out" "$CATDB" client --port "$port" --shutdown ci
  if ! wait "$SERVE_PID"; then
    SERVE_PID=
    fail "daemon did not drain to a clean exit" "$TMP/serve.log"
  fi
  SERVE_PID=
  echo "serve: ok (two 4-client passes identical, run == client on both flag sets, clean drain)"
}

# run_capped <KiB> <cmd...>: run cmd under a `ulimit -v` address-space
# cap. MALLOC_ARENA_MAX=1 keeps glibc from reserving per-thread arenas
# that count against the virtual cap without being real usage.
run_capped() (
  ulimit -v "$1"
  shift
  MALLOC_ARENA_MAX=1 "$@"
)

# A ~545 MB CSV (at least 4x a 128 MiB address-space cap) sketch-profiles
# under the cap at CATDB_THREADS 1 and 8 with identical stdout (minus the
# wall-clock "profiled in" line); exact mode, which materialises the
# whole table, must fail under the same cap.
smoke_outofcore() {
  local cap_kb=131072 rows=20000000 csv="$TMP/big.csv" csv_bytes threads
  build -p catdb-serve --bin catdb -p catdb-bench --bin sketch_bench
  run_to "sketch_bench gen" "$TMP/gen.out" ./target/release/sketch_bench gen "$csv" "$rows"
  csv_bytes="$(stat -c %s "$csv" 2> /dev/null || stat -f %z "$csv")"
  if [ "$csv_bytes" -lt $((cap_kb * 1024 * 4)) ]; then
    fail "CSV is ${csv_bytes} bytes, below 4x the ${cap_kb} KiB cap"
  fi
  for threads in 1 8; do
    CATDB_THREADS="$threads" run_to "sketch profile under the cap at $threads thread(s)" \
      "$TMP/sketch-$threads.out" run_capped "$cap_kb" "$CATDB" profile --csv "$csv" --profile-mode sketch
    sed '/profiled in/d' "$TMP/sketch-$threads.out" > "$TMP/sketch-$threads.stable"
  done
  same_stdout "sketch profiles at 1 and 8 threads" "$TMP/sketch-1.stable" "$TMP/sketch-8.stable"
  if CATDB_THREADS=1 run_capped "$cap_kb" "$CATDB" profile --csv "$csv" --profile-mode exact \
    > "$TMP/exact.out" 2> "$TMP/exact.out.err"; then
    fail "exact profile unexpectedly fit a ${csv_bytes}-byte CSV under a ${cap_kb} KiB cap"
  fi
  echo "outofcore: ok (${csv_bytes}-byte CSV sketch-profiled under a ${cap_kb} KiB cap, thread-invariant; exact mode OOM-failed as expected)"
}

# One seeded multi-step pipeline at CATDB_THREADS 1 and 8: identical,
# non-empty stdout (DAG scheduling leaks no thread count), and --dag-out
# writes a step DAG with nodes and deps. A seeded run on the tree-heavy
# CSV must also print the same pipeline at 1 and 8 threads (parallel
# forest and boosting fits leak no thread count).
smoke_dag() {
  build_catdb
  churn_csv > "$TMP/churn.csv"
  local -a run=("$CATDB" run --csv "$TMP/churn.csv" --target churn --task binary --seed 7)
  run_twice_and_diff "DAG run at 1 and 8 threads" "$TMP/run" 1 8 "${run[@]}"
  [ -s "$TMP/run-1.out" ] || fail "run produced no pipeline code on stdout" "$TMP/run-1.out.err"
  tree_csv > "$TMP/trees.csv"
  run_twice_and_diff "tree-heavy run at 1 and 8 threads" "$TMP/trees" 1 8 \
    "$CATDB" run --csv "$TMP/trees.csv" --target label --task binary --seed 7
  CATDB_THREADS=8 run_to "run with --dag-out" "$TMP/export.out" "${run[@]}" --dag-out "$TMP/dag.json"
  if ! grep -q '"nodes"' "$TMP/dag.json" || ! grep -q '"deps"' "$TMP/dag.json"; then
    fail "--dag-out did not write a step DAG with nodes and deps" "$TMP/dag.json"
  fi
  echo "dag: ok (stdout byte-identical at CATDB_THREADS 1 and 8 on both CSVs; DAG exported)"
}

"smoke_$GATE"
