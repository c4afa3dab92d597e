//! Head-to-head on one dirty dataset (Etailing): CatDB vs the three
//! LLM-based baselines vs the four AutoML tools, with tokens and runtime —
//! a one-dataset slice of Tables 5–6.
//!
//! Run with: `cargo run --release --example automl_comparison`

use catdb_automl::{run_automl, AutoMlConfig, AutoMlOutcome, ToolProfile};
use catdb_baselines::{
    run_aide, run_autogen, run_caafe, AideConfig, AutoGenConfig, CaafeConfig, CaafeModel,
};
use catdb_core::{collect, generate_pipeline, CatDbConfig, CollectOptions};
use catdb_data::{generate, GenOptions};
use catdb_llm::{ModelProfile, SimLlm};

fn main() {
    let g = generate("etailing", &GenOptions { max_rows: 800, scale: 1.0, seed: 9 })
        .expect("known dataset");
    let llm = SimLlm::new(ModelProfile::gpt_4o(), 9);

    let opts = CollectOptions { refine: true, ..Default::default() };
    let collected = collect(&g.dataset, &g.target, g.task, &llm, &opts).expect("collect");
    let (raw_train, raw_test) = collected.raw.train_test_split(0.7, 9).expect("split");
    let refined = collected.refined.expect("refinement is on");
    let entry = refined.entry;
    let (train, test) = refined.table.train_test_split(0.7, 9).expect("split");

    println!("{:<16} {:>10} {:>10} {:>10}", "system", "test score", "tokens", "seconds");
    println!("{}", "-".repeat(52));

    let outcome = generate_pipeline(&entry, &train, &test, &llm, &CatDbConfig::default());
    println!(
        "{:<16} {:>10} {:>10} {:>10.3}",
        "catdb",
        outcome
            .evaluation
            .as_ref()
            .map(|e| format!("{:.3}", e.test.headline()))
            .unwrap_or_else(|| "N/A".into()),
        outcome.ledger.total().total(),
        outcome.elapsed_seconds + outcome.llm_seconds,
    );

    let baselines = [
        (
            "caafe_tabpfn",
            run_caafe(&raw_train, &raw_test, &g.target, g.task, &llm, &CaafeConfig::default()),
        ),
        (
            "caafe_rforest",
            run_caafe(
                &raw_train,
                &raw_test,
                &g.target,
                g.task,
                &llm,
                &CaafeConfig { model: CaafeModel::RandomForest, ..Default::default() },
            ),
        ),
        ("aide", run_aide(&raw_train, &raw_test, &g.target, g.task, &llm, &AideConfig::default())),
        (
            "autogen",
            run_autogen(&raw_train, &raw_test, &g.target, g.task, &llm, &AutoGenConfig::default()),
        ),
    ];
    for (name, b) in baselines {
        println!(
            "{:<16} {:>10} {:>10} {:>10.3}",
            name,
            b.test_score.map(|s| format!("{s:.3}")).unwrap_or_else(|| b.cell()),
            b.ledger.total().total(),
            b.elapsed_seconds + b.llm_seconds,
        );
    }

    for tool in ToolProfile::all() {
        let out = run_automl(
            &tool,
            &raw_train,
            &raw_test,
            &g.target,
            g.task,
            &AutoMlConfig { time_budget_seconds: 10.0, seed: 9 },
        );
        let (score, secs) = match &out {
            AutoMlOutcome::Success { test_score, elapsed_seconds, .. } => {
                (format!("{test_score:.3}"), *elapsed_seconds)
            }
            other => (other.cell(), 0.0),
        };
        println!("{:<16} {:>10} {:>10} {:>10.3}", tool.name, score, "-", secs);
    }
}
