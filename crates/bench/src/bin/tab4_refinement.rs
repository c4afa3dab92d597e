//! Table 4 — catalog refinement and data cleaning: per-column distinct
//! counts before and after the LLM-assisted refinement on the six
//! cleaning datasets (EU IT, Wifi, Etailing, Survey, Utility, Yelp).
//!
//! Paper shape: systematic reduction of distinct items; list features get
//! extracted into their unique items (Yelp 2060 → 512-style drops).

use catdb_bench::{render_table, save_results, BenchArgs};
use catdb_catalog::RefineAction;
use catdb_data::generate;
use serde_json::json;

const CLEANING_DATASETS: [&str; 6] = ["eu-it", "wifi", "etailing", "survey", "utility", "yelp"];

fn main() {
    let args = BenchArgs::parse();
    let spec = args.spec("gemini-1.5-pro", args.run.seed);
    let llm = spec.llm();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in CLEANING_DATASETS {
        let g = generate(name, &args.gen_options()).expect("known dataset");
        let collected = spec.collect(&g.dataset, &g.target, g.task, &*llm).expect("collect");
        let report = collected.refined.expect("refinement is on").report;
        for r in &report.refinements {
            let action = match &r.action {
                RefineAction::DedupValues { merged } => format!("dedup ({merged} merged)"),
                RefineAction::SplitComposite { into } => format!("split into {}", into.len()),
                RefineAction::ExpandList { items } => format!("list → {items} items"),
                RefineAction::Reclassified { from, to } => format!("{from} → {to}"),
            };
            rows.push(vec![
                name.to_string(),
                r.column.clone(),
                r.distinct_before.to_string(),
                r.distinct_after.to_string(),
                action.clone(),
            ]);
            records.push(json!({
                "dataset": name,
                "column": r.column,
                "distinct_before": r.distinct_before,
                "distinct_after": r.distinct_after,
                "action": action,
            }));
        }
    }
    println!(
        "{}",
        render_table(
            "Table 4: Catalog Refinement — distinct counts original vs CatDB",
            &["dataset", "column", "original", "refined", "action"],
            &rows,
        )
    );
    save_results("tab4_refinement", &json!({ "records": records }));
}
