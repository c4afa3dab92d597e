//! `pipeline/dag_parallel` bench: one preprocessing-heavy pipeline
//! executed as a step DAG on the shared pool. The program fans out
//! per-column impute/scale/drop steps — the shape Algorithm 2's
//! generated pipelines actually take — so the scheduler's antichain
//! waves get real independent work. Prints a single `key=value` line
//! for `scripts/bench_quick.sh` to parse.
//!
//! Usage: dag_bench [rows] [float_cols] [cat_cols]

use catdb_ml::TaskKind;
use catdb_pipeline::{execute, parse, Environment, ExecutionConfig};
use catdb_table::{Column, Table};
use std::fmt::Write as _;
use std::time::Instant;

fn dataset(rows: usize, float_cols: usize, cat_cols: usize) -> (Table, Table) {
    let mut columns: Vec<(String, Column)> = Vec::new();
    for c in 0..float_cols {
        let vals: Vec<Option<f64>> = (0..rows)
            .map(|i| {
                if (i + c) % 17 == 0 {
                    None
                } else {
                    Some(((i * 31 + c * 7) % 1009) as f64 * 0.37 - 50.0)
                }
            })
            .collect();
        columns.push((format!("f{c}"), Column::Float(vals)));
    }
    for c in 0..cat_cols {
        let vals: Vec<Option<String>> = (0..rows)
            .map(|i| {
                if (i + c) % 13 == 0 {
                    None
                } else {
                    Some(format!("cat{c}_free_text_value_{:04}", (i * 13 + c * 5) % 509))
                }
            })
            .collect();
        columns.push((format!("c{c}"), Column::Str(vals)));
    }
    let label: Vec<&str> =
        (0..rows).map(|i| if (i * 29) % 97 < 48 { "neg" } else { "pos" }).collect();
    columns.push(("y".to_string(), Column::from_strings(label)));
    let table = Table::from_columns(columns).unwrap();
    table.train_test_split(0.7, 0).unwrap()
}

fn program_src(float_cols: usize, cat_cols: usize) -> String {
    let mut src = String::from("pipeline {\n");
    for c in 0..float_cols {
        writeln!(src, "  impute \"f{c}\" strategy mean;").unwrap();
    }
    for c in 0..cat_cols {
        writeln!(src, "  impute \"c{c}\" strategy most_frequent;").unwrap();
    }
    for c in 0..float_cols {
        writeln!(src, "  scale \"f{c}\" method standard;").unwrap();
    }
    // Free-text columns carry no signal for the model (and unencoded
    // strings fail featurization); cleaning then dropping them is the
    // shape a generated pipeline takes, and both steps are local.
    for c in 0..cat_cols {
        writeln!(src, "  drop \"c{c}\";").unwrap();
    }
    src.push_str("  model classifier decision_tree target \"y\";\n}");
    src
}

/// Best-of-`iters` wall time of one execution, in ms.
fn run_ms(iters: usize, rows: usize, float_cols: usize, cat_cols: usize) -> f64 {
    let (train, test) = dataset(rows, float_cols, cat_cols);
    let program = parse(&program_src(float_cols, cat_cols)).unwrap();
    let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
    let env = Environment::default();
    let mut best = f64::MAX;
    for _ in 0..iters {
        let started = Instant::now();
        execute(&program, &train, &test, &env, &cfg).unwrap();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let rows: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(30_000);
    let float_cols: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let cat_cols: usize = std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(16);
    let steps = 2 * float_cols + 2 * cat_cols + 1;
    let dag_ms = run_ms(3, rows, float_cols, cat_cols);
    println!(
        "dag_bench: rows={rows} steps={steps} threads={} dag_ms={dag_ms:.1}",
        catdb_runtime::pool_size(),
    );
}
