//! DAG executor integration: execution must be byte-identical — same
//! evaluation, same `PipelineOp` event stream, same counters (minus the
//! pool's own bookkeeping) — at every `CATDB_THREADS` setting, and
//! compiled schedules must be topologically valid on arbitrary
//! dependency graphs. Equality with source-order interpretation is the
//! pipeline crate's oracle proptest.

use catdb_ml::TaskKind;
use catdb_pipeline::{
    execute, parse, topo_order, DagError, Environment, Evaluation, ExecutionConfig, StepDag,
    COUNTER_DAG_WAVES,
};
use catdb_table::{Column, Table};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A pipeline whose seven steps split into three waves: {impute a,
/// impute b, encode c} → {scale a, scale b, encode d} → {model}. Columns
/// c and d are independent of a and b throughout; both encoders append
/// columns, so `encode d` waits for `encode c`.
const PROGRAM: &str = "pipeline {\n  impute \"a\" strategy mean;\n  scale \"a\" method standard;\n  impute \"b\" strategy mean;\n  scale \"b\" method minmax;\n  encode \"c\" method onehot;\n  encode \"d\" method hash buckets 8;\n  model classifier decision_tree target \"y\";\n}";

fn dataset() -> (Table, Table) {
    let n = 80;
    let a: Vec<Option<f64>> =
        (0..n).map(|i| if i % 9 == 0 { None } else { Some(i as f64 * 0.7 - 5.0) }).collect();
    let b: Vec<Option<f64>> =
        (0..n).map(|i| if i % 7 == 0 { None } else { Some((i as f64).sin() * 3.0) }).collect();
    let c: Vec<&str> = (0..n).map(|i| ["red", "green", "blue"][i % 3]).collect();
    let d: Vec<String> = (0..n).map(|i| format!("tag{}", i % 11)).collect();
    let y: Vec<&str> = (0..n).map(|i| if (i * 13) % 17 < 8 { "n" } else { "p" }).collect();
    let t = Table::from_columns(vec![
        ("a", Column::Float(a)),
        ("b", Column::Float(b)),
        ("c", Column::from_strings(c)),
        ("d", Column::from_strings(d.iter().map(|s| s.as_str()).collect::<Vec<_>>())),
        ("y", Column::from_strings(y)),
    ])
    .unwrap();
    t.train_test_split(0.7, 0).unwrap()
}

/// Counters with scheduling bookkeeping removed: the work-stealing
/// pool's (`runtime.*`, whose steal counts depend on thread interleaving
/// by construction) and the process-global value-dictionary memo
/// (`dict.*`, whose hit/miss split depends on what ran earlier in the
/// process). Everything else, the DAG's wave count included, must match
/// across thread counts.
fn without_sched_counters(counters: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    counters
        .iter()
        .filter(|(k, _)| !k.starts_with("runtime.") && !k.starts_with("dict."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn traced_run() -> (Evaluation, String, BTreeMap<String, f64>) {
    let (train, test) = dataset();
    let program = parse(PROGRAM).unwrap();
    let sink = Arc::new(catdb_trace::TraceSink::new());
    let guard = catdb_trace::install(sink.clone());
    let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
    let eval = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap();
    drop(guard);
    let t = sink.snapshot();
    // Zero the per-op wall-clock payload: order, ops, and row counts
    // are the determinism-comparable parts of the stream.
    let events: Vec<catdb_trace::TraceEvent> = t
        .events_modulo_timing()
        .into_iter()
        .map(|e| match e {
            catdb_trace::TraceEvent::PipelineOp { op, rows_in, rows_out, .. } => {
                catdb_trace::TraceEvent::PipelineOp { op, rows_in, rows_out, micros: 0 }
            }
            other => other,
        })
        .collect();
    (eval, format!("{events:?}"), t.counters.clone())
}

/// Re-runs this test binary as a worker under `CATDB_THREADS` ∈
/// {1, 2, 8}: the thread pool sizes itself once per process, so each
/// setting needs its own process. Every worker's evaluation, event
/// stream, and counter map must be byte-identical.
#[test]
fn dag_output_identical_across_thread_counts() {
    if std::env::var("CATDB_DAG_WORKER").is_ok() {
        let (eval, events, counters) = traced_run();
        println!("DAG_WORKER_BEGIN");
        // Wall-clock zeroed, everything else byte-compared via `Debug`.
        println!("{:?}", Evaluation { elapsed_seconds: 0.0, ..eval });
        println!("{events}");
        println!("{:?}", without_sched_counters(&counters));
        println!("DAG_WORKER_END");
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let mut outputs = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "dag_output_identical_across_thread_counts", "--nocapture"])
            .env("CATDB_DAG_WORKER", "1")
            .env("CATDB_THREADS", threads)
            .output()
            .unwrap();
        assert!(out.status.success(), "worker at {threads} threads failed");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let begin = stdout.find("DAG_WORKER_BEGIN").expect("begin marker");
        let end = stdout.find("DAG_WORKER_END").expect("end marker");
        outputs.push(stdout[begin..end].to_string());
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 threads");
    // The schedule actually parallelized: 7 steps in 3 waves.
    let (_, _, counters) = traced_run();
    assert_eq!(counters.get(COUNTER_DAG_WAVES), Some(&3.0));
}

#[test]
fn compiled_schedule_is_topologically_valid_and_parallel() {
    let program = parse(PROGRAM).unwrap();
    let dag = StepDag::compile(&program);
    let initial: Vec<String> = ["a", "b", "c", "d", "y"].iter().map(|s| s.to_string()).collect();
    let order = dag.validate(&initial).unwrap();
    let mut pos = vec![0usize; dag.nodes.len()];
    for (p, n) in order.iter().enumerate() {
        pos[*n] = p;
    }
    for node in &dag.nodes {
        for dep in &node.deps {
            assert!(pos[*dep] < pos[node.index], "step {} scheduled before dep {dep}", node.index);
        }
    }
    // Independent column groups share no edge: `impute b` (2) does not
    // depend on `impute a` (0), and `encode c` (4) is parentless. The
    // second encoder waits only for the first, so appended columns keep
    // source order.
    assert!(dag.nodes[2].deps.is_empty());
    assert!(dag.nodes[4].deps.is_empty());
    assert_eq!(dag.nodes[5].deps, vec![4]);
    // The model is a barrier over everything before it.
    assert_eq!(dag.nodes[6].deps, vec![0, 1, 2, 3, 4, 5]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random acyclic graphs (every edge points to a lower index)
    /// always schedule, and the order respects every edge.
    #[test]
    fn topo_order_schedules_random_dags(
        spec in prop::collection::vec(
            prop::collection::vec(0usize..1_000, 0..4),
            1..24,
        ),
    ) {
        // Edges only point downward (dep = draw mod index), so the
        // graph is acyclic by construction.
        let deps: Vec<Vec<usize>> = spec
            .iter()
            .enumerate()
            .map(|(i, ds)| {
                if i == 0 { Vec::new() } else { ds.iter().map(|d| d % i).collect() }
            })
            .collect();
        let order = topo_order(&deps).expect("graphs with downward edges are acyclic");
        prop_assert_eq!(order.len(), deps.len());
        let mut pos = vec![0usize; deps.len()];
        for (p, n) in order.iter().enumerate() {
            pos[*n] = p;
        }
        for (n, ds) in deps.iter().enumerate() {
            for d in ds {
                prop_assert!(pos[*d] < pos[n], "node {} before its dep {}", n, d);
            }
        }
    }

    /// Closing a random chain back on itself is always rejected as a
    /// cycle, never mis-scheduled.
    #[test]
    fn topo_order_rejects_random_cycles(
        len in 3usize..16,
        k in 0usize..1_000,
    ) {
        let mut deps: Vec<Vec<usize>> =
            (0..len).map(|i| if i == 0 { Vec::new() } else { vec![i - 1] }).collect();
        deps[k % (len - 1)].push(len - 1);
        prop_assert!(matches!(topo_order(&deps), Err(DagError::Cycle { .. })));
    }
}
