//! Table 8 — end-to-end generation runtime across the eight Table 7
//! datasets per LLM: failure counts, average and total runtimes
//! (catalog work + LLM latency + validation + execution).
//!
//! Paper shapes: CatDB and CatDB Chain finish on every dataset with every
//! LLM (Fail = 0); CAAFE fails on the large datasets; AIDE/AutoGen fail
//! sporadically and their runtime tracks the LLM.

use catdb_baselines::{
    run_aide, run_autogen, run_caafe, AideConfig, AutoGenConfig, CaafeConfig, CaafeModel,
};
use catdb_bench::{paper_llms, prepare, render_table, save_results, traced, BenchArgs};
use catdb_core::{measured_cost, RunSpec};
use catdb_data::generate;
use catdb_sched::CompletionCache;
use serde_json::json;
use std::sync::Arc;

const DATASETS: [&str; 8] =
    ["airline", "imdb", "accidents", "financial", "cmc", "bike-sharing", "house-sales", "nyc"];

#[derive(Default)]
struct Tally {
    fails: usize,
    total_seconds: f64,
    successes: usize,
}

impl Tally {
    fn add(&mut self, success: bool, seconds: f64) {
        if success {
            self.successes += 1;
            self.total_seconds += seconds;
        } else {
            self.fails += 1;
        }
    }

    fn row(&self, system: &str, llm: &str) -> Vec<String> {
        let avg = if self.successes > 0 { self.total_seconds / self.successes as f64 } else { 0.0 };
        vec![
            system.to_string(),
            llm.to_string(),
            self.fails.to_string(),
            format!("{avg:.2}"),
            format!("{:.2}", self.total_seconds),
        ]
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for llm_name in paper_llms() {
        let mut tallies: Vec<(&str, Tally)> = vec![
            ("catdb", Tally::default()),
            ("catdb_chain", Tally::default()),
            ("caafe_tabpfn", Tally::default()),
            ("caafe_rforest", Tally::default()),
            ("aide", Tally::default()),
            ("autogen", Tally::default()),
        ];
        for name in DATASETS {
            let g = generate(name, &args.gen_options()).expect("known dataset");
            let spec = args.spec(llm_name, args.run.seed);
            let p = prepare(&g, &spec, &*spec.llm());

            for (slot, beta) in [(0, 1), (1, 3)] {
                let spec = RunSpec { beta, ..spec.clone() };
                let o = spec.generate(&p.entry, &p.train, &p.test, &*spec.llm(), None);
                tallies[slot].1.add(o.success, o.elapsed_seconds + o.llm_seconds);
            }
            let b = run_caafe(
                &p.raw_train,
                &p.raw_test,
                &p.target,
                p.task,
                &*spec.llm(),
                &CaafeConfig::default(),
            );
            tallies[2].1.add(b.success, b.elapsed_seconds + b.llm_seconds);
            let b = run_caafe(
                &p.raw_train,
                &p.raw_test,
                &p.target,
                p.task,
                &*spec.llm(),
                &CaafeConfig { model: CaafeModel::RandomForest, ..Default::default() },
            );
            tallies[3].1.add(b.success, b.elapsed_seconds + b.llm_seconds);
            let b = run_aide(
                &p.raw_train,
                &p.raw_test,
                &p.target,
                p.task,
                &*spec.llm(),
                &AideConfig::default(),
            );
            tallies[4].1.add(b.success, b.elapsed_seconds + b.llm_seconds);
            let b = run_autogen(
                &p.raw_train,
                &p.raw_test,
                &p.target,
                p.task,
                &*spec.llm(),
                &AutoGenConfig::default(),
            );
            tallies[5].1.add(b.success, b.elapsed_seconds + b.llm_seconds);
        }
        for (system, tally) in &tallies {
            rows.push(tally.row(system, llm_name));
            records.push(json!({
                "system": system, "llm": llm_name,
                "fail": tally.fails,
                "avg_seconds": if tally.successes > 0 { tally.total_seconds / tally.successes as f64 } else { 0.0 },
                "sum_seconds": tally.total_seconds,
            }));
        }
    }
    println!(
        "{}",
        render_table(
            "Table 8: End-to-end runtime across 8 datasets [s]",
            &["system", "llm", "fail", "avg", "sum"],
            &rows,
        )
    );

    // Top-K (α) sweep on one dataset per LLM, all configurations sharing
    // one completion cache. Pass 2 re-visits every configuration: with
    // the same seed each run's prompts fingerprint identically, so the
    // second pass is served entirely from the cache at zero cost.
    let mut topk_rows = Vec::new();
    let mut topk_records = Vec::new();
    for llm_name in paper_llms() {
        let g = generate("cmc", &args.gen_options()).expect("known dataset");
        let spec = args.spec(llm_name, args.run.seed);
        let p = prepare(&g, &spec, &*spec.llm());
        let llm = spec.llm();
        let cache = Arc::new(CompletionCache::new(4096));
        for pass in 1..=2usize {
            for alpha in [Some(4), Some(8), None] {
                let spec = RunSpec { alpha, ..spec.clone() };
                let (o, t) = traced(|| {
                    spec.generate(&p.entry, &p.train, &p.test, &*llm, Some(cache.clone()))
                });
                let m = measured_cost(&t);
                let alpha_label = alpha.map_or("all".to_string(), |a| a.to_string());
                topk_rows.push(vec![
                    llm_name.to_string(),
                    alpha_label.clone(),
                    pass.to_string(),
                    m.llm_calls.to_string(),
                    m.cache_hits.to_string(),
                    format!("{:.4}", m.usd),
                    format!("{:.2}", o.elapsed_seconds + o.llm_seconds),
                ]);
                topk_records.push(json!({
                    "llm": llm_name, "alpha": alpha, "pass": pass,
                    "success": o.success,
                    "llm_calls": m.llm_calls,
                    "cache_hits": m.cache_hits,
                    "cache_saved_tokens": m.cache_saved_tokens,
                    "cache_saved_usd": m.cache_saved_usd,
                    "cost_usd": m.usd,
                    "seconds": o.elapsed_seconds + o.llm_seconds,
                }));
            }
        }
    }
    println!(
        "{}",
        render_table(
            "Top-K (α) sweep on cmc with a shared completion cache",
            &["llm", "α", "pass", "llm calls", "cache hits", "USD", "s"],
            &topk_rows,
        )
    );
    save_results("tab8_e2e", &json!({ "records": records, "topk_sweep": topk_records }));
}
