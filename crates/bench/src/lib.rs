//! # catdb-bench — experiment harness
//!
//! Shared utilities for the per-table/per-figure experiment binaries
//! (`src/bin/*.rs`): the shared flags, each run's [`RunSpec`], dataset
//! preparation on its collection half (generate → materialize → profile
//! → optionally refine → split), uniform result rows, plain-text table
//! rendering, and JSON result persistence under `results/`.

use catdb_catalog::CatalogEntry;
use catdb_core::{GenerationOutcome, RunFlags, RunSpec};
use catdb_data::{GenOptions, GeneratedDataset};
use catdb_llm::{LanguageModel, ModelProfile, RouteSpec};
use catdb_ml::TaskKind;
use catdb_profiler::ProfileMode;
use catdb_table::Table;
use std::path::PathBuf;

/// A dataset prepared for experiments.
pub struct Prepared {
    pub entry: CatalogEntry,
    pub train: Table,
    pub test: Table,
    /// Raw (unrefined) variants for original-vs-refined comparisons.
    pub raw_entry: CatalogEntry,
    pub raw_train: Table,
    pub raw_test: Table,
    pub refinement: Option<catdb_catalog::RefinementReport>,
    pub task: TaskKind,
    pub target: String,
}

/// Collect one paper dataset under `spec` (refinement through `llm` when
/// `spec.refine` is set), then split the raw and the refined table 70/30
/// under `spec.seed`.
pub fn prepare(g: &GeneratedDataset, spec: &RunSpec, llm: &dyn LanguageModel) -> Prepared {
    let collected = spec.collect(&g.dataset, &g.target, g.task, llm).expect("collect");
    let (raw_train, raw_test) = collected.raw.train_test_split(0.7, spec.seed).expect("split");
    let (entry, train, test, refinement) = match collected.refined {
        Some(r) => {
            let (train, test) = r.table.train_test_split(0.7, spec.seed).expect("split");
            (r.entry, train, test, Some(r.report))
        }
        None => (collected.raw_entry.clone(), raw_train.clone(), raw_test.clone(), None),
    };
    Prepared {
        entry,
        train,
        test,
        raw_entry: collected.raw_entry,
        raw_train,
        raw_test,
        refinement,
        task: g.task,
        target: g.target.clone(),
    }
}

/// The three paper models in table order.
pub fn paper_llms() -> Vec<&'static str> {
    vec!["gpt-4o", "gemini-1.5-pro", "llama3.1-70b"]
}

/// Run any closure under a fresh trace sink, returning its value and the
/// recorded trace (the figure binaries read their token, cost, iteration
/// and runtime numbers from it).
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
    /// Quick mode trims iteration counts for smoke runs.
    pub quick: bool,
    /// CI smoke mode: tiny dataset, one seed, fully deterministic stdout
    /// (implies `quick`; used by the determinism gate, which runs a bin
    /// twice and diffs the output).
    pub smoke: bool,
    /// `--seed`, the transport trio, `--llm-concurrency` and `--route`,
    /// parsed by the same code as `catdb run`'s.
    pub run: RunFlags,
    /// `--route`, resolved once at startup; when set, figure binaries
    /// add a `catdb_routed` system row.
    pub route: Option<RouteSpec>,
}

impl BenchArgs {
    /// Parse argv, or exit 2 with an error naming the offending flag.
    pub fn parse() -> BenchArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs::from_args(&argv).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// Parse `--max-rows N`, `--quick`, `--smoke` and the [`RunFlags`].
    /// A missing or malformed value, a bad `--route` or an unknown flag
    /// is an error.
    pub fn from_args(argv: &[String]) -> Result<BenchArgs, String> {
        let mut max_rows = 2_000;
        let (mut quick, mut smoke) = (false, false);
        let mut run = RunFlags::new(7);
        let mut rest = argv.iter();
        while let Some(flag) = rest.next() {
            match flag.as_str() {
                "--max-rows" => max_rows = catdb_core::value(&mut rest, flag, str::parse)?,
                "--quick" => quick = true,
                "--smoke" => (smoke, quick, max_rows) = (true, true, 300),
                other => {
                    if !run.parse_flag(other, &mut rest)? {
                        return Err(format!("unknown argument: {other}"));
                    }
                }
            }
        }
        let route = run.resolve_route()?;
        Ok(BenchArgs { max_rows, quick, smoke, run, route })
    }

    /// The unrouted run of paper model `model` at `seed`, with this
    /// invocation's transport and fan-out: β = 1, refinement on.
    pub fn spec(&self, model: &str, seed: u64) -> RunSpec {
        RunSpec {
            model: ModelProfile::by_name(model).expect("a paper model"),
            route: None,
            seed,
            alpha: None,
            beta: 1,
            refine: true,
            llm_concurrency: self.run.llm_concurrency,
            transport: self.run.transport,
            profile: ProfileMode::default(),
        }
    }

    /// [`BenchArgs::spec`] under `--route`, or `None` when unrouted.
    pub fn routed(&self, model: &str, seed: u64) -> Option<RunSpec> {
        let route = self.route.clone()?;
        Some(RunSpec { route: Some(route), ..self.spec(model, seed) })
    }

    pub fn gen_options(&self) -> GenOptions {
        GenOptions { max_rows: self.max_rows, scale: 1.0, seed: self.run.seed }
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

    fn parse(words: &[&str]) -> Result<BenchArgs, String> {
        let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        BenchArgs::from_args(&argv)
    }

    fn diabetes() -> GeneratedDataset {
        generate("diabetes", &GenOptions { max_rows: 300, ..Default::default() }).unwrap()
    }

    #[test]
    fn prepare_produces_consistent_splits() {
        let args = parse(&[]).unwrap();
        let spec = args.spec("gemini-1.5-pro", 3);
        let p = prepare(&diabetes(), &spec, &*spec.llm());
        assert_eq!(p.train.n_rows() + p.test.n_rows(), 300);
        assert_eq!(p.raw_train.n_rows(), p.train.n_rows());
        assert!(p.refinement.is_some());
    }

    #[test]
    fn spec_generates_end_to_end_on_prepared() {
        let spec = parse(&[]).unwrap().spec("gpt-4o", 3);
        let llm = spec.llm();
        let p = prepare(&diabetes(), &spec, &*llm);
        let outcome = spec.generate(&p.entry, &p.train, &p.test, &*llm, None);
        assert!(outcome.success);
        assert!(test_score(&outcome) > 0.5);
    }

    #[test]
    fn flags_reach_every_spec() {
        let args = parse(&[
            "--smoke",
            "--seed",
            "11",
            "--fault-rate",
            "0.3",
            "--llm-concurrency",
            "2",
            "--route",
            "refine=llama,fix=mini",
        ])
        .unwrap();
        assert_eq!((args.max_rows, args.quick, args.run.seed), (300, true, 11));
        let spec = args.spec("gpt-4o", 5);
        assert_eq!((spec.seed, spec.llm_concurrency, spec.route), (5, 2, None));
        assert_eq!(spec.transport.fault_rate, 0.3);
        let routed = args.routed("gpt-4o", 5).expect("--route was given");
        assert_eq!(routed.llm().model_name(), "gpt-4o");
        assert!(parse(&[]).unwrap().routed("gpt-4o", 5).is_none());
    }

    #[test]
    fn bad_flags_are_errors_that_name_the_flag() {
        assert_eq!(parse(&["--smoke", "--seed"]).unwrap_err(), "--seed needs a value");
        let err = parse(&["--seed", "abc"]).unwrap_err();
        assert!(err.starts_with("bad --seed 'abc': "), "{err}");
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown argument: --bogus");
        let err = parse(&["--route", "refine=mistral"]).unwrap_err();
        assert!(err.starts_with("bad --route 'refine=mistral': unknown route model"), "{err}");
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
    fn pct_formats_like_paper() {
        assert_eq!(pct(0.918), "91.8");
        assert_eq!(pct(f64::NAN), "N/A");
    }
}
