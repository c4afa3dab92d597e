//! Figure 14 — end-to-end robustness study, two axes:
//!
//! **14a (data corruption):** inject outliers, missing values, and mixed
//! corruptions (0–5 %) into Utility (regression) and Volkert
//! (classification) and compare CatDB against the AutoML tools and CAAFE.
//! Paper shapes: CatDB holds its quality as corruption grows; AutoML
//! tools deteriorate beyond ~1 % outliers; missing values in regression
//! are handled by several tools; mixed errors hurt AutoML most.
//!
//! **14b (LLM transport faults):** sweep the injected transport fault
//! rate and measure, from traces, how the resilient client holds the
//! success rate and what the retries cost (wasted-spend overhead,
//! degradations to cheaper models).
//!
//! `--smoke` runs only the 14b sweep on a tiny dataset with fully
//! deterministic stdout — the CI determinism gate runs it twice and
//! diffs the output.

use catdb_automl::{run_automl, AutoMlConfig, AutoMlOutcome, ToolProfile};
use catdb_baselines::{run_caafe, CaafeConfig, CaafeModel};
use catdb_bench::{pct, prepare, render_table, save_results, traced, BenchArgs};
use catdb_catalog::CatalogEntry;
use catdb_core::{measured_cost, RunSpec};
use catdb_data::{corrupt, generate, Corruption};
use catdb_llm::Transport;
use catdb_profiler::{profile_table, ProfileOptions};
use serde_json::json;

const RATIOS: [f64; 4] = [0.0, 0.01, 0.03, 0.05];
const FAULT_RATES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

fn corruption_study(args: &BenchArgs) -> (Vec<Vec<String>>, Vec<serde_json::Value>) {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in ["utility", "volkert"] {
        let g = generate(name, &args.gen_options()).expect("known dataset");
        let flat = g.dataset.materialize().expect("materialize");
        for kind in [Corruption::Outliers, Corruption::MissingValues, Corruption::Mixed] {
            for ratio in RATIOS {
                let corrupted = corrupt(&flat, &g.target, kind, ratio, args.run.seed);
                let (train, test) = corrupted.train_test_split(0.7, args.run.seed).expect("split");
                // CatDB re-profiles the corrupted data (its rules see the
                // injected missingness/outliers and react).
                let profile = profile_table(name, &corrupted, &ProfileOptions::default());
                let entry = CatalogEntry::new(name, g.target.clone(), g.task, profile);
                // CatDB's score per cell is the mean of three generation
                // seeds (single generations are noisy; the paper's curves
                // average over repetitions).
                let catdb_scores: Vec<f64> = (0..3u64)
                    .filter_map(|i| {
                        let spec = args.spec("gemini-1.5-pro", args.run.seed + 97 * i);
                        let o = spec.generate(&entry, &train, &test, &*spec.llm(), None);
                        o.evaluation.map(|e| e.test.headline())
                    })
                    .collect();
                let catdb_mean = if catdb_scores.is_empty() {
                    f64::NAN
                } else {
                    catdb_scores.iter().sum::<f64>() / catdb_scores.len() as f64
                };

                let automl_cfg = AutoMlConfig { time_budget_seconds: 8.0, seed: args.run.seed };
                let mut cells = vec![
                    name.to_string(),
                    kind.label().to_string(),
                    format!("{:.0}%", ratio * 100.0),
                    pct(catdb_mean),
                ];
                let mut rec = serde_json::Map::new();
                rec.insert("dataset".into(), json!(name));
                rec.insert("corruption".into(), json!(kind.label()));
                rec.insert("ratio".into(), json!(ratio));
                rec.insert("catdb".into(), json!(catdb_mean));
                for tool in [ToolProfile::flaml(), ToolProfile::autogluon(), ToolProfile::h2o()] {
                    let out = run_automl(&tool, &train, &test, &g.target, g.task, &automl_cfg);
                    cells.push(out.cell());
                    rec.insert(
                        tool.name.to_string(),
                        json!(match &out {
                            AutoMlOutcome::Success { test_score, .. } => Some(*test_score),
                            _ => None,
                        }),
                    );
                }
                let llm = args.spec("gemini-1.5-pro", args.run.seed).llm();
                let caafe = run_caafe(
                    &train,
                    &test,
                    &g.target,
                    g.task,
                    &*llm,
                    &CaafeConfig { model: CaafeModel::RandomForest, ..Default::default() },
                );
                cells.push(caafe.cell());
                rec.insert("caafe".into(), json!(caafe.test_score));
                rows.push(cells);
                records.push(serde_json::Value::Object(rec));
            }
        }
    }
    (rows, records)
}

/// The 14b sweep: success-rate and cost-overhead curves over the injected
/// transport fault rate, everything sourced from traces.
fn fault_sweep(args: &BenchArgs) -> (Vec<Vec<String>>, Vec<serde_json::Value>) {
    let datasets: &[&str] = if args.smoke { &["diabetes"] } else { &["utility", "volkert"] };
    let rates: &[f64] = if args.smoke { &[0.0, 0.3] } else { &FAULT_RATES };
    let n_seeds: u64 = 3;
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in datasets {
        let g = generate(name, &args.gen_options()).expect("known dataset");
        for &rate in rates {
            let mut successes = 0u64;
            let mut scores = Vec::new();
            let mut llm_calls = 0usize;
            let mut retries = 0usize;
            let mut degradations = 0usize;
            let mut circuit_opens = 0usize;
            let mut usd_total = 0.0;
            let mut retry_usd = 0.0;
            for i in 0..n_seeds {
                let spec = RunSpec {
                    transport: Transport { fault_rate: rate, ..args.run.transport },
                    ..args.spec("gemini-1.5-pro", args.run.seed + 97 * i)
                };
                let llm = spec.llm();
                // The whole session — catalog refinement and generation —
                // rides the resilient transport, so the sweep sees the
                // call volume a production run would.
                let (outcome, trace) = traced(|| {
                    let p = prepare(&g, &spec, &*llm);
                    spec.generate(&p.entry, &p.train, &p.test, &*llm, None)
                });
                if outcome.success {
                    successes += 1;
                }
                if let Some(e) = &outcome.evaluation {
                    scores.push(e.test.headline());
                }
                let measured = measured_cost(&trace);
                llm_calls += measured.llm_calls;
                retries += measured.retries;
                degradations += trace.degraded_count();
                circuit_opens += trace.circuit_open_count();
                usd_total += measured.usd;
                retry_usd += measured.retry_usd;
            }
            let success_rate = successes as f64 / n_seeds as f64;
            let mean_score = if scores.is_empty() {
                f64::NAN
            } else {
                scores.iter().sum::<f64>() / scores.len() as f64
            };
            let overhead = if usd_total > 0.0 { retry_usd / usd_total } else { 0.0 };
            rows.push(vec![
                name.to_string(),
                format!("{:.0}%", rate * 100.0),
                format!("{:.0}%", success_rate * 100.0),
                pct(mean_score),
                llm_calls.to_string(),
                retries.to_string(),
                circuit_opens.to_string(),
                degradations.to_string(),
                format!("{:.1}%", overhead * 100.0),
            ]);
            records.push(json!({
                "dataset": name,
                "fault_rate": rate,
                "success_rate": success_rate,
                "llm_calls": llm_calls,
                "mean_score": if mean_score.is_nan() { None } else { Some(mean_score) },
                "retries": retries,
                "circuit_opens": circuit_opens,
                "degradations": degradations,
                "retry_cost_overhead": overhead,
            }));
        }
    }
    (rows, records)
}

fn main() {
    let args = BenchArgs::parse();
    let mut results = serde_json::Map::new();
    if !args.smoke {
        let (rows, records) = corruption_study(&args);
        println!(
            "{}",
            render_table(
                "Figure 14a: Robustness to injected corruption (test score %)",
                &[
                    "dataset",
                    "corruption",
                    "ratio",
                    "catdb",
                    "flaml",
                    "autogluon",
                    "h2o",
                    "caafe_rf"
                ],
                &rows,
            )
        );
        results.insert("records".into(), json!(records));
    }
    let (fault_rows, fault_records) = fault_sweep(&args);
    println!(
        "{}",
        render_table(
            "Figure 14b: Resilience to LLM transport faults (per fault rate)",
            &[
                "dataset",
                "fault_rate",
                "success",
                "score",
                "llm_calls",
                "retries",
                "circuit_opens",
                "degradations",
                "retry_cost_overhead",
            ],
            &fault_rows,
        )
    );
    results.insert("fault_sweep".into(), json!(fault_records));
    save_results("fig14_robustness", &serde_json::Value::Object(results));
}
