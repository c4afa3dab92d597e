//! Figure 13 — token consumption including error management across ten
//! datasets (the Table 7 eight plus Diabetes and Gas-Drift), split into
//! initial-generation vs error-management tokens per LLM.
//!
//! Paper shapes: CatDB and CAAFE have comparable totals; CatDB Chain is
//! sometimes costlier; error-management cost dominates for the Llama
//! profile and for regression / multi-table datasets.

use catdb_baselines::{run_caafe, CaafeConfig};
use catdb_bench::{paper_llms, prepare, render_table, save_results, traced, BenchArgs};
use catdb_core::RunSpec;
use catdb_data::generate;
use serde_json::json;

const DATASETS: [&str; 10] = [
    "airline",
    "imdb",
    "accidents",
    "financial",
    "cmc",
    "bike-sharing",
    "house-sales",
    "nyc",
    "diabetes",
    "gas-drift",
];

/// Split one run's trace into generation vs error-management tokens and
/// append the table row + JSON record. Each LlmCall is attributed to the
/// task of the PromptBuilt that preceded it.
fn push_split(
    rows: &mut Vec<Vec<String>>,
    records: &mut Vec<serde_json::Value>,
    dataset: &str,
    llm_name: &str,
    system: &str,
    trace: &catdb_trace::Trace,
) {
    let by_task = trace.llm_tokens_by_task();
    let err_tokens: usize = by_task
        .iter()
        .filter(|(task, _)| task.as_str() == "error_fix")
        .map(|(_, (i, o))| i + o)
        .sum();
    let (total_in, total_out) = trace.total_llm_tokens();
    let total = total_in + total_out;
    let gen_tokens = total - err_tokens;
    rows.push(vec![
        dataset.to_string(),
        llm_name.to_string(),
        system.to_string(),
        gen_tokens.to_string(),
        err_tokens.to_string(),
        total.to_string(),
    ]);
    records.push(json!({
        "dataset": dataset, "llm": llm_name, "system": system,
        "generation_tokens": gen_tokens,
        "error_tokens": err_tokens,
        "total_tokens": total,
        "error_iterations": trace.error_iteration_count(),
        "cache_hits": trace.cache_hit_count(),
        "cache_saved_tokens": trace.cache_saved_tokens(),
    }));
}

fn main() {
    let args = BenchArgs::parse();
    let llms = if args.quick { vec!["gemini-1.5-pro"] } else { paper_llms() };
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in DATASETS {
        let g = generate(name, &args.gen_options()).expect("known dataset");
        for llm_name in &llms {
            let spec = args.spec(llm_name, args.run.seed);
            let p = prepare(&g, &spec, &*spec.llm());
            let catdb = |spec: &RunSpec| {
                let llm = spec.llm();
                traced(|| spec.generate(&p.entry, &p.train, &p.test, &*llm, None)).1
            };
            for (system, beta) in [("catdb", 1usize), ("catdb_chain", 3)] {
                let trace = catdb(&RunSpec { beta, ..spec.clone() });
                push_split(&mut rows, &mut records, name, llm_name, system, &trace);
            }
            if let Some(routed) = args.routed(llm_name, args.run.seed) {
                let trace = catdb(&routed);
                push_split(&mut rows, &mut records, name, llm_name, "catdb_routed", &trace);
            }
            // CAAFE total for comparison (single ledger bucket).
            let llm = spec.llm();
            let (b, trace) = traced(|| {
                run_caafe(
                    &p.raw_train,
                    &p.raw_test,
                    &p.target,
                    p.task,
                    &*llm,
                    &CaafeConfig::default(),
                )
            });
            let (total_in, total_out) = trace.total_llm_tokens();
            rows.push(vec![
                name.to_string(),
                llm_name.to_string(),
                "caafe".to_string(),
                b.ledger.generation.total().to_string(),
                b.ledger.error_fixing.total().to_string(),
                (total_in + total_out).to_string(),
            ]);
            records.push(json!({
                "dataset": name, "llm": llm_name, "system": "caafe",
                "generation_tokens": b.ledger.generation.total(),
                "error_tokens": b.ledger.error_fixing.total(),
                "total_tokens": total_in + total_out,
            }));
        }
    }
    println!(
        "{}",
        render_table(
            "Figure 13: Token consumption incl. error management",
            &["dataset", "llm", "system", "gen tokens", "err tokens", "total"],
            &rows,
        )
    );
    save_results("fig13_tokens", &json!({ "route": args.run.route, "records": records }));
}
