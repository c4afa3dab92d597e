//! Figure 12 — token cost and total runtime over 10 iterations on
//! Diabetes, Gas-Drift, and Volkert for the LLM-based systems.
//!
//! Paper shapes: CatDB is cheaper than CatDB Chain; CAAFE's cost is
//! dominated by input tokens (schema + 10 samples per feature); AIDE is
//! cheap when generation succeeds and expensive when it retries; CatDB's
//! pipeline runtime is the smallest.

use catdb_baselines::{run_aide, run_autogen, run_caafe, AideConfig, AutoGenConfig, CaafeConfig};
use catdb_bench::{paper_llms, prepare, render_table, save_results, traced, BenchArgs};
use catdb_core::RunSpec;
use catdb_data::generate;
use serde_json::json;

const DATASETS: [&str; 3] = ["diabetes", "gas-drift", "volkert"];

#[derive(Default, Clone, Copy)]
struct Acc {
    input: usize,
    output: usize,
    usd: f64,
    llm_seconds: f64,
    local_seconds: f64,
    runs: usize,
    cache_hits: usize,
    cache_saved_usd: f64,
}

impl Acc {
    /// Token and dollar numbers come straight from the run's trace; the
    /// clock numbers from the outcome structs.
    fn add(&mut self, trace: &catdb_trace::Trace, llm_s: f64, local_s: f64) {
        let (input, output) = trace.total_llm_tokens();
        self.input += input;
        self.output += output;
        self.usd += trace.total_llm_cost();
        self.llm_seconds += llm_s;
        self.local_seconds += local_s;
        self.runs += 1;
        self.cache_hits += trace.cache_hit_count();
        self.cache_saved_usd += trace.cache_saved_cost();
    }

    fn row(&self, dataset: &str, llm: &str, system: &str) -> Vec<String> {
        let n = self.runs.max(1) as f64;
        vec![
            dataset.to_string(),
            llm.to_string(),
            system.to_string(),
            format!("{:.0}", self.input as f64 / n),
            format!("{:.0}", self.output as f64 / n),
            format!("{:.4}", self.usd / n),
            format!("{:.2}", self.llm_seconds / n),
            format!("{:.3}", self.local_seconds / n),
        ]
    }
}

fn main() {
    let args = BenchArgs::parse();
    let iterations = if args.quick { 2 } else { 10 };
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in DATASETS {
        let g = generate(name, &args.gen_options()).expect("known dataset");
        for llm_name in paper_llms() {
            let spec = args.spec(llm_name, args.run.seed);
            let p = prepare(&g, &spec, &*spec.llm());
            let mut accs: Vec<(&str, Acc)> = vec![
                ("catdb", Acc::default()),
                ("catdb_chain", Acc::default()),
                ("caafe", Acc::default()),
                ("aide", Acc::default()),
                ("autogen", Acc::default()),
            ];
            // With `--route` an extra row runs CatDB through the per-role
            // routed transport, so routed vs uniform cost reads off one
            // table.
            if args.route.is_some() {
                accs.push(("catdb_routed", Acc::default()));
            }
            for i in 0..iterations {
                let seed = args.run.seed + 31 * i as u64;
                let catdb = |spec: &RunSpec| {
                    let llm = spec.llm();
                    traced(|| spec.generate(&p.entry, &p.train, &p.test, &*llm, None))
                };
                let spec = args.spec(llm_name, seed);
                let (o, t) = catdb(&spec);
                accs[0].1.add(&t, o.llm_seconds, o.elapsed_seconds);
                let (o, t) = catdb(&RunSpec { beta: 2, ..spec.clone() });
                accs[1].1.add(&t, o.llm_seconds, o.elapsed_seconds);
                // Baselines are traced through the simulator's LlmCall
                // instrumentation — no baseline-side changes needed.
                let llm = spec.llm();
                let (b, t) = traced(|| {
                    run_caafe(
                        &p.raw_train,
                        &p.raw_test,
                        &p.target,
                        p.task,
                        &*llm,
                        &CaafeConfig { seed, ..Default::default() },
                    )
                });
                accs[2].1.add(&t, b.llm_seconds, b.elapsed_seconds);
                let llm = spec.llm();
                let (b, t) = traced(|| {
                    run_aide(
                        &p.raw_train,
                        &p.raw_test,
                        &p.target,
                        p.task,
                        &*llm,
                        &AideConfig { seed, ..Default::default() },
                    )
                });
                accs[3].1.add(&t, b.llm_seconds, b.elapsed_seconds);
                let llm = spec.llm();
                let (b, t) = traced(|| {
                    run_autogen(
                        &p.raw_train,
                        &p.raw_test,
                        &p.target,
                        p.task,
                        &*llm,
                        &AutoGenConfig { seed, ..Default::default() },
                    )
                });
                accs[4].1.add(&t, b.llm_seconds, b.elapsed_seconds);
                if let Some(routed) = args.routed(llm_name, seed) {
                    let (o, t) = catdb(&routed);
                    accs[5].1.add(&t, o.llm_seconds, o.elapsed_seconds);
                }
            }
            for (system, acc) in &accs {
                rows.push(acc.row(name, llm_name, system));
                records.push(json!({
                    "dataset": name, "llm": llm_name, "system": system,
                    "avg_input_tokens": acc.input as f64 / acc.runs.max(1) as f64,
                    "avg_output_tokens": acc.output as f64 / acc.runs.max(1) as f64,
                    "avg_cost_usd": acc.usd / acc.runs.max(1) as f64,
                    "avg_llm_seconds": acc.llm_seconds / acc.runs.max(1) as f64,
                    "avg_local_seconds": acc.local_seconds / acc.runs.max(1) as f64,
                    "cache_hits": acc.cache_hits,
                    "cache_saved_usd": acc.cache_saved_usd,
                }));
            }
        }
    }
    println!(
        "{}",
        render_table(
            &format!("Figure 12: Cost and runtime, averaged over {iterations} iterations"),
            &["dataset", "llm", "system", "in tok", "out tok", "USD", "llm s", "local s"],
            &rows,
        )
    );
    save_results(
        "fig12_cost",
        &json!({ "iterations": iterations, "route": args.run.route, "records": records }),
    );
}
