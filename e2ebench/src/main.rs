//! `catdb-e2ebench` — the end-to-end CatDB benchmark.
//!
//! ```text
//! catdb-e2ebench --workload paper_runs|wide_profile|serve_mixed
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced work and
//! reports the per-layer metrics, printing a self-time breakdown on
//! stderr. The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero when the correctness gate fails. See
//! `README.md` for what each workload exercises and why.

mod batch;
mod meter;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the correctness gate failed, if it did.
    pub errors: Vec<String>,
    /// Fingerprint of the run's deterministic outputs.
    pub digest: stats::Digest,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// A failed, refused or panicked operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.guard(why);
    }

    /// A violated invariant that makes the run's figures untrustworthy.
    pub fn guard(&mut self, why: String) {
        eprintln!("[correctness] {why}");
        self.errors.push(why);
    }
}

/// What a workload is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for generated inputs, removed afterwards.
    pub dir: PathBuf,
}

/// SplitMix64 finaliser over `seed ^ salt`: independent sub-seeds.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub const WORKLOADS: [&str; 3] = ["paper_runs", "wide_profile", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Render the result line. Values keep every digit they were measured
/// with.
fn result_json(correct: bool, outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

/// Cross-run determinism: the digest of every (binary, workload, seed)
/// is recorded next to the build, and a later run of the same binary on
/// the same workload and seed — traced or not — must reproduce it.
fn check_digest_ledger(
    ledger: &Path,
    workload: &str,
    seed: u64,
    digest: u64,
) -> Result<(), String> {
    let exe = std::env::current_exe().and_then(std::fs::read).map_err(|e| e.to_string())?;
    let key = format!("{:016x}\t{workload}\t{seed}", stats::Digest::default().bytes(&exe).value());
    let text = std::fs::read_to_string(ledger).unwrap_or_default();
    if let Some(line) = text.lines().find(|l| l.starts_with(&format!("{key}\t"))) {
        let recorded = line.rsplit('\t').next().unwrap_or_default();
        return if recorded == format!("{digest:016x}") {
            Ok(())
        } else {
            Err(format!("output digest {digest:016x} differs from {recorded} of an earlier run"))
        };
    }
    if let Some(dir) = ledger.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(ledger, format!("{text}{key}\t{digest:016x}\n")).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: catdb-e2ebench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Scratch space and the digest ledger live in the build directory.
    let build =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: build.join("e2ebench-data").join(format!("{}-{}", args.workload, std::process::id())),
    };
    eprintln!(
        "[{} seed {} for {}s, trace {}, CATDB_THREADS {}]",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        catdb_runtime::pool_size()
    );
    let mut outcome = match args.workload.as_str() {
        "paper_runs" => batch::run_mix(&ctx, &batch::PAPER_RUNS),
        "wide_profile" => batch::run_mix(&ctx, &batch::WIDE_PROFILE),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let ledger = build.join("e2ebench-digests.tsv");
    if let Err(e) = check_digest_ledger(&ledger, &args.workload, args.seed, outcome.digest.value())
    {
        outcome.fail(e);
    }
    eprintln!(
        "[digest {:016x}; {} attempted, {} failed ({:.4} failed_frac)]",
        outcome.digest.value(),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let metrics = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in metrics {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.errors.is_empty();
    println!("{}", result_json(correct, &outcome, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_the_driver_form_and_reject_the_rest() {
        let a =
            parse_args(&argv("--workload serve_mixed --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 9, 12.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload paper_runs --trace 2")).is_err());
        assert!(parse_args(&argv("--workload paper_runs --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload paper_runs --seed")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome { attempted: 3, ..Default::default() };
        let line = result_json(true, &outcome, &[Metric::new("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn ledger_accepts_repeats_and_rejects_a_changed_digest() {
        let dir = std::env::temp_dir().join(format!("e2ebench-ledger-{}", std::process::id()));
        let ledger = dir.join("digests.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(check_digest_ledger(&ledger, "paper_runs", 1, 0xabc).is_ok());
        assert!(check_digest_ledger(&ledger, "paper_runs", 1, 0xabc).is_ok());
        assert!(check_digest_ledger(&ledger, "paper_runs", 2, 0xdef).is_ok());
        assert!(check_digest_ledger(&ledger, "paper_runs", 1, 0xdef).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
