//! Table 7 — single-iteration quality on the eight large/complex datasets
//! (Airline, IMDB, Accidents, Financial, CMC, Bike-Sharing, House-Sales,
//! NYC) across the three LLM profiles, against CAAFE, AIDE, AutoGen, the
//! AutoML tools, and AutoML after cleaning + augmentation.
//!
//! Paper shapes: CatDB/CatDB Chain rank at or near the top everywhere and
//! never fail; CAAFE(TabPFN) OOMs on the large datasets; AutoML tools hit
//! OOM/TO on the biggest ones.

use catdb_automl::{run_automl, AutoMlConfig, AutoMlOutcome, ToolProfile};
use catdb_baselines::{run_aide, run_autogen, run_caafe, AideConfig, AutoGenConfig, CaafeConfig};
use catdb_bench::{pct, prepare, render_table, save_results, test_score, BenchArgs};
use catdb_clean::{saga, SagaConfig};
use catdb_core::RunSpec;
use catdb_data::generate;
use serde_json::json;

const DATASETS: [&str; 8] =
    ["airline", "imdb", "accidents", "financial", "cmc", "bike-sharing", "house-sales", "nyc"];

fn main() {
    let args = BenchArgs::parse();
    let llms = if args.quick { vec!["gemini-1.5-pro"] } else { catdb_bench::paper_llms() };
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in DATASETS {
        let g = generate(name, &args.gen_options()).expect("known dataset");
        // AutoML + cleaning run once per dataset (LLM-independent).
        let spec = args.spec("gemini-1.5-pro", args.run.seed);
        let p = prepare(&g, &spec, &*spec.llm());
        let automl_cfg = AutoMlConfig { time_budget_seconds: 12.0, seed: args.run.seed };
        let cleaning = saga(&p.raw_train, &p.target, p.task, &SagaConfig::default()).ok();
        let prep_label = cleaning.as_ref().map(|c| c.label()).unwrap_or_else(|| "-".into());
        let mut automl_cells = Vec::new();
        for tool in ToolProfile::all() {
            let raw = run_automl(&tool, &p.raw_train, &p.raw_test, &p.target, p.task, &automl_cfg);
            let cleaned = match &cleaning {
                Some(c) => {
                    let test = c.apply_value_ops(&p.raw_test, &p.target);
                    run_automl(&tool, &c.cleaned, &test, &p.target, p.task, &automl_cfg)
                }
                None => AutoMlOutcome::Unsupported("cleaning failed"),
            };
            automl_cells.push((tool.name, raw.cell(), cleaned.cell()));
        }

        for llm_name in &llms {
            let spec = args.spec(llm_name, args.run.seed);
            let single = spec.generate(&p.entry, &p.train, &p.test, &*spec.llm(), None);
            // The chain's LLM draws from its own seed; generation keeps the
            // run seed.
            let chain_llm = RunSpec { seed: args.run.seed ^ 0xABCD, ..spec.clone() }.llm();
            let chain = RunSpec { beta: 4, ..spec.clone() }.generate(
                &p.entry,
                &p.train,
                &p.test,
                &*chain_llm,
                None,
            );
            let caafe = run_caafe(
                &p.raw_train,
                &p.raw_test,
                &p.target,
                p.task,
                &*spec.llm(),
                &CaafeConfig::default(),
            );
            let aide = run_aide(
                &p.raw_train,
                &p.raw_test,
                &p.target,
                p.task,
                &*spec.llm(),
                &AideConfig::default(),
            );
            let autogen = run_autogen(
                &p.raw_train,
                &p.raw_test,
                &p.target,
                p.task,
                &*spec.llm(),
                &AutoGenConfig::default(),
            );

            let mut row = vec![
                name.to_string(),
                llm_name.to_string(),
                pct(test_score(&single)),
                pct(test_score(&chain)),
                caafe.cell(),
                aide.cell(),
                autogen.cell(),
            ];
            for (_, raw, cleaned) in &automl_cells {
                row.push(format!("{raw}/{cleaned}"));
            }
            row.push(prep_label.clone());
            rows.push(row);
            records.push(json!({
                "dataset": name, "llm": llm_name,
                "catdb": test_score(&single), "catdb_chain": test_score(&chain),
                "caafe": caafe.test_score, "aide": aide.test_score, "autogen": autogen.test_score,
                "automl": automl_cells.iter().map(|(t, r, c)| json!({"tool": t, "raw": r, "cleaned": c})).collect::<Vec<_>>(),
                "preprocessing": prep_label,
            }));
        }
    }
    println!(
        "{}",
        render_table(
            "Table 7: Single-iteration test AUC/R2 % (AutoML cells: raw/cleaned)",
            &[
                "dataset",
                "llm",
                "catdb",
                "chain",
                "caafe",
                "aide",
                "autogen",
                "a.sklearn",
                "h2o",
                "flaml",
                "autogluon",
                "preproc",
            ],
            &rows,
        )
    );
    save_results("tab7_single", &json!({ "records": records }));
}
