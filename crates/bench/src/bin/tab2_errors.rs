//! Table 2 / Figure 8 — the error-trace dataset: run many generation
//! sessions across datasets and LLM profiles, collect every error
//! occurrence, and report the per-LLM category distribution (Table 2) and
//! per-kind histogram (Figure 8). `--quick` trims the session count.
//!
//! Also runs the error-management ablation (KB only / LLM-fix only /
//! both / none) to quantify what each correction channel contributes.
//!
//! Paper shapes: RE dominates everywhere; the Gemini-like profile has a
//! much larger KB share than the Llama-like profile (21 % vs 2.5 %);
//! disabling error management collapses the success rate.

use catdb_bench::{paper_llms, prepare, render_table, save_results, BenchArgs};
use catdb_core::{generate_pipeline, ErrorTraceDb};
use catdb_data::generate;
use serde_json::json;

const DATASETS: [&str; 6] = ["eu-it", "wifi", "etailing", "survey", "yelp", "diabetes"];

fn main() {
    let args = BenchArgs::parse();
    let sessions = if args.quick { 3 } else { 12 };
    let mut db = ErrorTraceDb::default();
    let mut ablation_rows = Vec::new();

    for llm_name in paper_llms() {
        for name in DATASETS {
            let g = generate(name, &args.gen_options()).expect("known dataset");
            let spec = args.spec(llm_name, args.run.seed);
            let p = prepare(&g, &spec, &*spec.llm());
            for s in 0..sessions {
                let spec = args.spec(llm_name, args.run.seed + 7919 * s as u64);
                let outcome = spec.generate(&p.entry, &p.train, &p.test, &*spec.llm(), None);
                db.extend(outcome.traces);
            }
        }
    }

    // Table 2: per-LLM category distribution.
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for llm_name in paper_llms() {
        let (total, kb, se, re) = db.category_distribution(llm_name);
        rows.push(vec![
            llm_name.to_string(),
            total.to_string(),
            format!("{kb:.3}"),
            format!("{se:.3}"),
            format!("{re:.3}"),
        ]);
        records.push(json!({
            "llm": llm_name, "total": total, "kb_pct": kb, "se_pct": se, "re_pct": re,
        }));
    }
    println!(
        "{}",
        render_table(
            "Table 2: Error distributions of the error-trace dataset",
            &["llm", "total errors", "KB [%]", "SE [%]", "RE [%]"],
            &rows,
        )
    );

    // Figure 8: per-kind histogram.
    let kind_rows: Vec<Vec<String>> = db
        .kind_distribution()
        .into_iter()
        .map(|(kind, n)| {
            vec![kind.category().label().to_string(), kind.code().to_string(), n.to_string()]
        })
        .collect();
    println!(
        "{}",
        render_table("Figure 8: Error kinds", &["category", "kind", "count"], &kind_rows)
    );

    // Error-management ablation on the dirtiest dataset.
    let g = generate("eu-it", &args.gen_options()).expect("known dataset");
    let spec = args.spec("llama3.1-70b", args.run.seed);
    let p = prepare(&g, &spec, &*spec.llm());
    for (label, kb, llm_fix, fallback) in [
        ("kb + llm + fallback", true, true, true),
        ("kb + llm", true, true, false),
        ("kb only", true, false, false),
        ("llm only", false, true, false),
        ("none", false, false, false),
    ] {
        let mut successes = 0;
        let runs = sessions.max(4);
        for s in 0..runs {
            let spec = args.spec("llama3.1-70b", args.run.seed + 104_729 * s as u64);
            let mut cfg = spec.config(None);
            cfg.use_knowledge_base = kb;
            cfg.use_llm_fix = llm_fix;
            cfg.handcraft_fallback = fallback;
            if generate_pipeline(&p.entry, &p.train, &p.test, &*spec.llm(), &cfg).success {
                successes += 1;
            }
        }
        ablation_rows.push(vec![label.to_string(), format!("{successes}/{runs}")]);
    }
    println!(
        "{}",
        render_table(
            "Error-management ablation (eu-it, llama profile)",
            &["channels", "success rate"],
            &ablation_rows,
        )
    );
    save_results(
        "tab2_errors",
        &json!({
            "table2": records,
            "kinds": db.kind_distribution().into_iter().map(|(k, n)| json!({"kind": k.code(), "count": n})).collect::<Vec<_>>(),
            "total_traces": db.len(),
        }),
    );
}
