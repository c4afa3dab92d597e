//! Figure 11 — pipeline quality over 10 prompt-execution iterations on
//! Diabetes, Gas-Drift, and Volkert, for CatDB / CatDB Chain and the
//! LLM-based baselines across the three LLM profiles.
//!
//! Paper shapes: CAAFE(TabPFN) is stable on small data but fails on the
//! high-dimensional Volkert; AIDE/AutoGen are unstable across LLMs; CatDB
//! variants deliver comparable-or-better AUC with somewhat higher
//! variance.

use catdb_baselines::{
    run_aide, run_autogen, run_caafe, AideConfig, AutoGenConfig, CaafeConfig, CaafeModel,
};
use catdb_bench::{
    paper_llms, pct, prepare, render_table, save_results, test_score, traced, BenchArgs,
};
use catdb_core::RunSpec;
use catdb_data::generate;
use serde_json::json;

const DATASETS: [&str; 3] = ["diabetes", "gas-drift", "volkert"];

fn stats(scores: &[f64]) -> (f64, f64, usize) {
    let ok: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    let fails = scores.len() - ok.len();
    if ok.is_empty() {
        return (f64::NAN, 0.0, fails);
    }
    let mean = ok.iter().sum::<f64>() / ok.len() as f64;
    let var = ok.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / ok.len() as f64;
    (mean, var.sqrt(), fails)
}

/// One benchmark system: seed -> (accuracy, captured trace).
type TracedRun<'a> = Box<dyn Fn(u64) -> (f64, catdb_trace::Trace) + 'a>;

fn main() {
    let args = BenchArgs::parse();
    let iterations = if args.quick { 3 } else { 10 };
    let mut rows = Vec::new();
    let mut records = Vec::new();

    for name in DATASETS {
        let g = generate(name, &args.gen_options()).expect("known dataset");
        for llm_name in paper_llms() {
            let spec = args.spec(llm_name, args.run.seed);
            let p = prepare(&g, &spec, &*spec.llm());
            let catdb = |beta: usize, seed: u64| {
                let spec = RunSpec { beta, ..args.spec(llm_name, seed) };
                let llm = spec.llm();
                traced(|| test_score(&spec.generate(&p.entry, &p.train, &p.test, &*llm, None)))
            };
            let systems: Vec<(&str, TracedRun)> = vec![
                ("catdb", Box::new(|seed| catdb(1, seed))),
                ("catdb_chain", Box::new(|seed| catdb(2, seed))),
                (
                    "caafe_tabpfn",
                    Box::new(|seed| {
                        let llm = args.spec(llm_name, seed).llm();
                        let cfg = CaafeConfig { seed, ..Default::default() };
                        traced(|| {
                            run_caafe(&p.raw_train, &p.raw_test, &p.target, p.task, &*llm, &cfg)
                                .test_score
                                .unwrap_or(f64::NAN)
                        })
                    }),
                ),
                (
                    "caafe_rforest",
                    Box::new(|seed| {
                        let llm = args.spec(llm_name, seed).llm();
                        let cfg = CaafeConfig {
                            model: CaafeModel::RandomForest,
                            seed,
                            ..Default::default()
                        };
                        traced(|| {
                            run_caafe(&p.raw_train, &p.raw_test, &p.target, p.task, &*llm, &cfg)
                                .test_score
                                .unwrap_or(f64::NAN)
                        })
                    }),
                ),
                (
                    "aide",
                    Box::new(|seed| {
                        let llm = args.spec(llm_name, seed).llm();
                        let cfg = AideConfig { seed, ..Default::default() };
                        traced(|| {
                            run_aide(&p.raw_train, &p.raw_test, &p.target, p.task, &*llm, &cfg)
                                .test_score
                                .unwrap_or(f64::NAN)
                        })
                    }),
                ),
                (
                    "autogen",
                    Box::new(|seed| {
                        let llm = args.spec(llm_name, seed).llm();
                        let cfg = AutoGenConfig { seed, ..Default::default() };
                        traced(|| {
                            run_autogen(&p.raw_train, &p.raw_test, &p.target, p.task, &*llm, &cfg)
                                .test_score
                                .unwrap_or(f64::NAN)
                        })
                    }),
                ),
            ];
            for (system, run) in systems {
                let runs: Vec<(f64, catdb_trace::Trace)> =
                    (0..iterations).map(|i| run(args.run.seed + 1000 * i as u64)).collect();
                let scores: Vec<f64> = runs.iter().map(|(s, _)| *s).collect();
                // Error-management effort comes from the trace, not the
                // outcome structs: every repair attempt is an
                // ErrorIteration event, every simulator call an LlmCall.
                let error_iterations: usize =
                    runs.iter().map(|(_, t)| t.error_iteration_count()).sum();
                let llm_calls: usize = runs.iter().map(|(_, t)| t.llm_call_count()).sum();
                let (mean, std, fails) = stats(&scores);
                rows.push(vec![
                    name.to_string(),
                    llm_name.to_string(),
                    system.to_string(),
                    pct(mean),
                    format!("{:.1}", std * 100.0),
                    fails.to_string(),
                    error_iterations.to_string(),
                    llm_calls.to_string(),
                ]);
                records.push(json!({
                    "dataset": name, "llm": llm_name, "system": system,
                    "scores": scores, "mean": mean, "std": std, "failures": fails,
                    "error_iterations": error_iterations, "llm_calls": llm_calls,
                }));
            }
        }
    }
    println!(
        "{}",
        render_table(
            &format!("Figure 11: AUC over {iterations} iterations"),
            &[
                "dataset",
                "llm",
                "system",
                "mean AUC %",
                "std %",
                "failures",
                "err iters",
                "llm calls"
            ],
            &rows,
        )
    );
    save_results("fig11_iterations", &json!({ "iterations": iterations, "records": records }));
}
