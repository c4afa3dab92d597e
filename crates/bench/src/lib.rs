//! # catdb-bench — experiment harness
//!
//! Shared utilities for the per-table/per-figure experiment binaries
//! (`src/bin/*.rs`): dataset preparation (generate → materialize →
//! profile → optionally refine → split), system runners with uniform
//! result rows, plain-text table rendering, and JSON result persistence
//! under `results/`.

use catdb_catalog::CatalogEntry;
use catdb_core::{generate_pipeline, CatDbConfig, GenerationOutcome, PromptOptions};
use catdb_data::{GenOptions, GeneratedDataset};
use catdb_llm::{
    resolve_route, LanguageModel, ModelProfile, RouteError, SimLlm, Transport,
    DEFAULT_ROUTE_TARGET_ACCURACY,
};
use catdb_ml::TaskKind;
use catdb_profiler::{profile_table, ProfileOptions};
use catdb_sched::{CompletionCache, DEFAULT_LLM_CONCURRENCY};
use catdb_table::Table;
use serde_json::json;
use std::path::PathBuf;
use std::sync::Arc;

/// A dataset prepared for experiments.
pub struct Prepared {
    pub name: String,
    pub entry: CatalogEntry,
    pub train: Table,
    pub test: Table,
    /// Raw (unrefined) variants for original-vs-refined comparisons.
    pub raw_entry: CatalogEntry,
    pub raw_train: Table,
    pub raw_test: Table,
    pub refinement: Option<catdb_catalog::RefinementReport>,
    pub profile_seconds: f64,
    pub task: TaskKind,
    pub target: String,
}

/// Generate + profile + (optionally) refine + split one paper dataset.
pub fn prepare(g: &GeneratedDataset, refine: bool, llm: &dyn LanguageModel, seed: u64) -> Prepared {
    let materialized = g.dataset.materialize().expect("materialize");
    let popts = ProfileOptions::default();
    let profile = profile_table(g.spec.name, &materialized, &popts);
    let profile_seconds = profile.elapsed_seconds;
    let raw_entry = CatalogEntry::new(g.spec.name, g.target.clone(), g.task, profile.clone());
    let (raw_train, raw_test) = materialized.train_test_split(0.7, seed).expect("split");

    let (entry, train, test, refinement) = if refine {
        let (prepared, refined_profile, report) = catdb_catalog::refine_dataset(
            g.spec.name,
            &materialized,
            &profile,
            &g.target,
            llm,
            &catdb_catalog::RefineOptions::default(),
        );
        let entry = CatalogEntry::new(g.spec.name, g.target.clone(), g.task, refined_profile);
        let (train, test) = prepared.train_test_split(0.7, seed).expect("split");
        (entry, train, test, Some(report))
    } else {
        (raw_entry.clone(), raw_train.clone(), raw_test.clone(), None)
    };

    Prepared {
        name: g.spec.name.to_string(),
        entry,
        train,
        test,
        raw_entry,
        raw_train,
        raw_test,
        refinement,
        profile_seconds,
        task: g.task,
        target: g.target.clone(),
    }
}

/// Build a simulated LLM for one of the paper's model names.
pub fn llm_for(name: &str, seed: u64) -> SimLlm {
    let profile = ModelProfile::by_name(name).unwrap_or_else(ModelProfile::gpt_4o);
    SimLlm::new(profile, seed)
}

/// The three paper models in table order.
pub fn paper_llms() -> Vec<&'static str> {
    vec!["gpt-4o", "gemini-1.5-pro", "llama3.1-70b"]
}

/// Build the per-role routed transport for a bench run: one simulated
/// resilient backend per distinct model in the route spec, all sharing
/// `seed` so routed runs stay byte-deterministic. `route` accepts the
/// same grammar as `catdb run --route` (including `auto`).
pub fn routed_llm_for(
    default_model: &str,
    route: &str,
    target_accuracy: f64,
    seed: u64,
    transport: &Transport,
) -> Result<Box<dyn LanguageModel>, RouteError> {
    let profile = ModelProfile::by_name(default_model).unwrap_or_else(ModelProfile::gpt_4o);
    let spec = resolve_route(route, target_accuracy)?;
    Ok(transport.build(&profile, Some(&spec), seed))
}

/// Run CatDB (β = 1) or CatDB Chain (β > 1) on a prepared dataset.
pub fn run_catdb(
    p: &Prepared,
    llm: &dyn LanguageModel,
    beta: usize,
    seed: u64,
) -> GenerationOutcome {
    run_catdb_with(p, llm, beta, seed, DEFAULT_LLM_CONCURRENCY, None)
}

/// [`run_catdb`] with explicit scheduler knobs: the fan-out bound for the
/// chain's independent per-chunk prompts, and an optional completion
/// cache shared across runs (a sweep re-visiting a configuration replays
/// its completions for free).
pub fn run_catdb_with(
    p: &Prepared,
    llm: &dyn LanguageModel,
    beta: usize,
    seed: u64,
    llm_concurrency: usize,
    cache: Option<Arc<CompletionCache>>,
) -> GenerationOutcome {
    let cfg = CatDbConfig {
        prompt: PromptOptions { beta, ..Default::default() },
        seed,
        llm_concurrency,
        llm_cache: cache,
        ..Default::default()
    };
    generate_pipeline(&p.entry, &p.train, &p.test, llm, &cfg)
}

/// Like [`run_catdb`], but under a fresh trace sink: returns the outcome
/// together with the recorded [`catdb_trace::Trace`], from which the
/// figure binaries read their token/cost/iteration/runtime numbers.
pub fn run_catdb_traced(
    p: &Prepared,
    llm: &dyn LanguageModel,
    beta: usize,
    seed: u64,
) -> (GenerationOutcome, catdb_trace::Trace) {
    let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
    let outcome = {
        let _guard = catdb_trace::install(sink.clone());
        run_catdb(p, llm, beta, seed)
    };
    (outcome, sink.snapshot())
}

/// Run any closure under a fresh trace sink, returning its value and the
/// recorded trace (used to trace baseline systems, whose LLM calls are
/// captured by the simulator's instrumentation).
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, catdb_trace::Trace) {
    let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
    let value = {
        let _guard = catdb_trace::install(sink.clone());
        f()
    };
    (value, sink.snapshot())
}

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    pub max_rows: usize,
    pub seed: u64,
    /// Quick mode trims iteration counts for smoke runs.
    pub quick: bool,
    /// CI smoke mode: tiny dataset, one seed, fully deterministic stdout
    /// (implies `quick`; used by the determinism gate, which runs a bin
    /// twice and diffs the output).
    pub smoke: bool,
    /// `--fault-rate`, `--max-retries` and `--llm-timeout`.
    pub transport: Transport,
    /// Concurrent in-flight LLM requests for the chain's fan-out stages.
    pub llm_concurrency: usize,
    /// Per-role model routing spec (`refine=llama,fix=mini` or `auto`);
    /// when set, figure binaries add a `catdb_routed` system row.
    pub route: Option<String>,
    /// End-to-end accuracy target for `--route auto`.
    pub route_target_accuracy: f64,
}

impl BenchArgs {
    /// Parse `--max-rows N`, `--seed N`, `--quick`, `--smoke`,
    /// `--fault-rate F`, `--max-retries N`, `--llm-timeout S`,
    /// `--llm-concurrency N`, `--route SPEC|auto`,
    /// `--route-target-accuracy F` from argv.
    pub fn parse() -> BenchArgs {
        let mut args = BenchArgs {
            max_rows: 2_000,
            seed: 7,
            quick: false,
            smoke: false,
            transport: Transport::default(),
            llm_concurrency: DEFAULT_LLM_CONCURRENCY,
            route: None,
            route_target_accuracy: DEFAULT_ROUTE_TARGET_ACCURACY,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--max-rows" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.max_rows = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.seed = v;
                        i += 1;
                    }
                }
                "--fault-rate" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.transport.fault_rate = v;
                        i += 1;
                    }
                }
                "--max-retries" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.transport.max_retries = v;
                        i += 1;
                    }
                }
                "--llm-timeout" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.transport.llm_timeout = Some(v);
                        i += 1;
                    }
                }
                "--llm-concurrency" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.llm_concurrency = v;
                        i += 1;
                    }
                }
                "--route" => {
                    if let Some(v) = argv.get(i + 1) {
                        args.route = Some(v.clone());
                        i += 1;
                    }
                }
                "--route-target-accuracy" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.route_target_accuracy = v;
                        i += 1;
                    }
                }
                "--quick" => args.quick = true,
                "--smoke" => {
                    args.smoke = true;
                    args.quick = true;
                    args.max_rows = 300;
                }
                _ => {}
            }
            i += 1;
        }
        args
    }

    /// The routed LLM for this run's `--route`, or `None` when unrouted.
    /// A malformed spec aborts the binary with the structured parse error
    /// (bench runs should fail loudly, not silently fall back).
    pub fn routed_llm(&self, default_model: &str, seed: u64) -> Option<Box<dyn LanguageModel>> {
        self.route.as_ref().map(|route| {
            routed_llm_for(default_model, route, self.route_target_accuracy, seed, &self.transport)
                .unwrap_or_else(|e| {
                    eprintln!("bad --route '{route}': {e}");
                    std::process::exit(2);
                })
        })
    }

    pub fn gen_options(&self) -> GenOptions {
        GenOptions { max_rows: self.max_rows, scale: 1.0, seed: self.seed }
    }
}

/// Render an aligned plain-text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("\n=== {title} ===\n");
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(headers.iter().map(|h| h.to_string()).collect(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Persist a JSON result under `results/<name>.json` (best effort).
pub fn save_results(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(text) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, text);
            eprintln!("[saved {}]", path.display());
        }
    }
}

/// Summarize a generation outcome as a JSON record.
pub fn outcome_json(outcome: &GenerationOutcome) -> serde_json::Value {
    json!({
        "success": outcome.success,
        "handcrafted": outcome.handcrafted,
        "attempts": outcome.attempts,
        "test_score": outcome.evaluation.as_ref().map(|e| e.test.headline()),
        "train_score": outcome.evaluation.as_ref().map(|e| e.train.headline()),
        "tokens_total": outcome.ledger.total().total(),
        "tokens_error_fixing": outcome.ledger.error_fixing.total(),
        "llm_calls": outcome.ledger.n_calls,
        "llm_seconds": outcome.llm_seconds,
        "local_seconds": outcome.elapsed_seconds,
        "errors": outcome.traces.len(),
    })
}

/// Convenience accessor: outcome's headline test score or NaN.
pub fn test_score(outcome: &GenerationOutcome) -> f64 {
    outcome.evaluation.as_ref().map(|e| e.test.headline()).unwrap_or(f64::NAN)
}

/// Format a score cell as the paper does (percent with one decimal).
pub fn pct(score: f64) -> String {
    if score.is_nan() {
        "N/A".to_string()
    } else {
        format!("{:.1}", score * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_data::generate;

    #[test]
    fn prepare_produces_consistent_splits() {
        let opts = GenOptions { max_rows: 300, ..Default::default() };
        let g = generate("diabetes", &opts).unwrap();
        let llm = llm_for("gemini-1.5-pro", 1);
        let p = prepare(&g, true, &llm, 3);
        assert_eq!(p.train.n_rows() + p.test.n_rows(), 300);
        assert_eq!(p.raw_train.n_rows(), p.train.n_rows());
        assert!(p.refinement.is_some());
        assert!(p.profile_seconds >= 0.0);
    }

    #[test]
    fn run_catdb_end_to_end_on_prepared() {
        let opts = GenOptions { max_rows: 300, ..Default::default() };
        let g = generate("diabetes", &opts).unwrap();
        let llm = llm_for("gpt-4o", 1);
        let p = prepare(&g, true, &llm, 3);
        let outcome = run_catdb(&p, &llm, 1, 3);
        assert!(outcome.success);
        assert!(test_score(&outcome) > 0.5);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let text = render_table(
            "T",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(text.contains("=== T ==="));
        assert!(text.contains("333"));
    }

    #[test]
    fn routed_llm_for_builds_from_spec_and_rejects_garbage() {
        let transport = Transport::default();
        let llm = routed_llm_for("gpt-4o", "refine=llama,fix=mini", 0.95, 7, &transport)
            .expect("valid spec");
        assert_eq!(llm.model_name(), "gpt-4o");
        assert!(routed_llm_for("gpt-4o", "refine=claude", 0.95, 7, &transport).is_err());
    }

    #[test]
    fn pct_formats_like_paper() {
        assert_eq!(pct(0.918), "91.8");
        assert_eq!(pct(f64::NAN), "N/A");
    }
}
