//! Figure 10 — the metadata-combination micro-benchmark: pipeline quality
//! under Table 1's metadata configurations #1–#11, the top-K (α) sweep on
//! a wide dataset, and CatDB vs CatDB Chain on the same wide dataset.
//!
//! Paper shapes to reproduce: (i) more metadata is not monotonically
//! better; (ii) very large prompts degrade quality (rules get ignored);
//! (iii) CatDB Chain stays high where the single prompt degrades.

use catdb_bench::{pct, prepare, render_table, save_results, test_score, BenchArgs};
use catdb_core::{generate_pipeline, MetadataConfig, RunSpec};
use catdb_data::{generate, GenOptions};
use serde_json::json;

fn main() {
    let args = BenchArgs::parse();
    let opts = GenOptions { max_rows: args.max_rows.min(1_200), ..args.gen_options() };
    let spec = args.spec("gemini-1.5-pro", args.run.seed);
    let mut results = Vec::new();

    // --- (a)/(b): metadata combinations on two contrasting datasets ---
    let mut combo_rows = Vec::new();
    for name in ["eu-it", "utility"] {
        let g = generate(name, &opts).expect("known dataset");
        let llm = spec.llm();
        let p = prepare(&g, &spec, &*llm);
        let mut row = vec![name.to_string()];
        for combo in 1..=11 {
            let mut cfg = spec.config(None);
            cfg.prompt.metadata = MetadataConfig::combination(combo);
            let outcome = generate_pipeline(&p.entry, &p.train, &p.test, &*llm, &cfg);
            let score = test_score(&outcome);
            row.push(pct(score));
            results.push(json!({
                "experiment": "combos", "dataset": name, "combo": combo, "test_score": score,
            }));
        }
        combo_rows.push(row);
    }
    let mut headers: Vec<String> = vec!["dataset".into()];
    headers.extend((1..=11).map(|i| format!("#{i}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!(
        "{}",
        render_table(
            "Figure 10(a,b): Metadata Combinations #1-#11 (test score %)",
            &header_refs,
            &combo_rows
        )
    );

    // --- (c): top-K sweep on the widest dataset (KDD98, 478 columns) ---
    let g = generate("kdd98", &opts).expect("known dataset");
    let llm = spec.llm();
    let p = prepare(&g, &spec, &*llm);
    let mut topk_rows = Vec::new();
    let sweeps: &[Option<usize>] = &[Some(20), Some(60), Some(120), Some(260), Some(400), None];
    for &alpha in sweeps {
        let outcome =
            RunSpec { alpha, ..spec.clone() }.generate(&p.entry, &p.train, &p.test, &*llm, None);
        let score = test_score(&outcome);
        let label = alpha.map(|a| a.to_string()).unwrap_or_else(|| "all".into());
        topk_rows.push(vec![
            label.clone(),
            pct(score),
            outcome.ledger.total().total().to_string(),
            outcome.attempts.to_string(),
        ]);
        results.push(json!({
            "experiment": "topk", "alpha": label, "test_score": score,
            "tokens": outcome.ledger.total().total(),
        }));
    }
    println!(
        "{}",
        render_table(
            "Figure 10(c): Top-K column sweep on kdd98 (single prompt)",
            &["alpha", "test score %", "tokens", "attempts"],
            &topk_rows,
        )
    );

    // --- (d): CatDB vs CatDB Chain on the wide dataset ---
    let mut chain_rows = Vec::new();
    for (label, beta) in [("CatDB (beta=1)", 1usize), ("CatDB Chain (beta=4)", 4)] {
        let outcome =
            RunSpec { beta, ..spec.clone() }.generate(&p.entry, &p.train, &p.test, &*llm, None);
        let score = test_score(&outcome);
        chain_rows.push(vec![
            label.to_string(),
            pct(score),
            outcome.ledger.total().total().to_string(),
            outcome.ledger.n_calls.to_string(),
        ]);
        results.push(json!({
            "experiment": "chain", "variant": label, "test_score": score,
            "tokens": outcome.ledger.total().total(),
        }));
    }
    println!(
        "{}",
        render_table(
            "Figure 10(d): Single prompt vs Chain on kdd98",
            &["variant", "test score %", "tokens", "llm calls"],
            &chain_rows,
        )
    );
    save_results("fig10_metadata", &json!({ "records": results }));
}
