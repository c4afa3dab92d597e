//! `paper_runs` and `wide_profile`: one-shot operations over paper
//! datasets written to CSV, each operation in a fresh stack as a CLI user
//! would run it.
//!
//! A *pass* is the workload's fixed work: every case of its mix once, on
//! inputs generated for that pass alone. Every pass draws new data seeds,
//! so no table is ever seen twice in the process and the profile memo
//! and value-dictionary cache stay cold. A run repeats passes until its
//! time is up and reports medians over them.

use crate::meter::{
    Breakdown, LlmTally, MeteredLlm, SPAN_COLLECT, SPAN_OP, SPAN_PIPGEN, SPAN_READ_CSV,
};
use crate::stats::{mean, median, peak_rss_mb, ratio, tail_percentile, Digest};
use crate::{sub_seed, Ctx, Metric, Outcome};
use catdb_catalog::{MultiTableDataset, Relationship};
use catdb_core::{catdb_collect, catdb_pipgen, CatDbConfig, CollectOptions, PromptOptions};
use catdb_llm::{FaultSpec, ModelProfile, ResilientClient, RetryPolicy};
use catdb_ml::TaskKind;
use catdb_sched::CompletionCache;
use catdb_table::{read_csv_path, write_csv, CsvOptions};
use catdb_trace::{Trace, TraceSink};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The LLM seed of every operation: the `catdb run` default. The
/// workload seed varies the data only.
pub const LLM_SEED: u64 = 42;
/// Entries of the per-run completion cache, as `generate_pipeline`
/// sizes its own session cache; passing one in only makes its
/// statistics readable.
const SESSION_CACHE_CAPACITY: usize = 4096;
/// Profile-memo counters `profile_table` emits (the profiler crate does
/// not re-export their constants).
const COUNTER_PROFILE_MEMO_HITS: &str = "profile.memo_hits";
const COUNTER_PROFILE_MEMO_MISSES: &str = "profile.memo_misses";

/// One operation of a mix: a paper dataset and, for `paper_runs`, the
/// chain length β (`None` runs the collect path alone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case {
    pub dataset: &'static str,
    pub beta: Option<usize>,
}

/// A mix and its input size.
pub struct Mix {
    pub cases: &'static [Case],
    /// Row cap handed to the dataset generators.
    pub rows: usize,
    /// Seconds one pass takes on the reference host (2 cores); sizes a
    /// run's fixed number of passes from `--seconds`.
    pub pass_seconds: f64,
}

const fn run(dataset: &'static str, beta: usize) -> Case {
    Case { dataset, beta: Some(beta) }
}

const fn collect(dataset: &'static str) -> Case {
    Case { dataset, beta: None }
}

/// Binary, multiclass and regression tasks; narrow and wide tables;
/// single tables and star-schema joins; β = 1 prompts and β = 3 chains.
pub const PAPER_RUNS: Mix = Mix {
    cases: &[
        run("cmc", 1),
        run("nyc", 1),
        run("house-sales", 1),
        run("accidents", 1),
        run("airline", 1),
        run("financial", 1),
        run("airline", 3),
        run("cmc", 3),
    ],
    rows: 1000,
    pass_seconds: 3.0,
};

/// The widest paper tables, two of them multi-table.
pub const WIDE_PROFILE: Mix = Mix {
    cases: &[
        collect("gas-drift"),
        collect("volkert"),
        collect("kdd98"),
        collect("airline"),
        collect("yelp"),
    ],
    rows: 1500,
    pass_seconds: 2.6,
};

/// One case's inputs on disk plus the schema metadata a caller supplies
/// with a multi-table dataset.
pub struct Input {
    pub case: Case,
    pub fact_table: String,
    pub tables: Vec<(String, PathBuf)>,
    pub relationships: Vec<Relationship>,
    pub target: String,
    pub task: TaskKind,
    /// CSV bytes written for this case.
    pub bytes: u64,
}

/// Data seed of case `c` in pass `pass`. It does not depend on the
/// workload seed: every run generates the same tables, so every run
/// draws the same pipelines from the simulated LLM, whose choices follow
/// a hash of the prompt. Distinct for every (pass, case) pair, so no two
/// operations of a run share a table.
pub fn data_seed(pass: usize, c: usize) -> u64 {
    sub_seed(0x5eed, (pass as u64) << 16 | c as u64)
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates over
/// SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (sub_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Generate one pass's tables and write them as CSV under `dir`.
pub fn write_inputs(dir: &Path, mix: &Mix, seed: u64, pass: usize) -> Result<Vec<Input>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut inputs = Vec::with_capacity(mix.cases.len());
    for (c, case) in mix.cases.iter().enumerate() {
        let opts =
            catdb_data::GenOptions { max_rows: mix.rows, scale: 1.0, seed: data_seed(pass, c) };
        let g = catdb_data::generate(case.dataset, &opts)
            .ok_or_else(|| format!("unknown dataset {}", case.dataset))?;
        let mut tables = Vec::new();
        let mut bytes = 0;
        for (t, (name, table)) in g.dataset.tables.iter().enumerate() {
            // The workload seed reorders rows: new bytes on disk, the
            // same profile, prompts and pipelines, the same work.
            let order = permutation(table.n_rows(), sub_seed(seed, data_seed(pass, c) ^ t as u64));
            let table = table.take(&order).map_err(|e| format!("reorder {name}: {e}"))?;
            let path = dir.join(format!("{c}-{}-{name}.csv", case.dataset));
            let mut file = std::fs::File::create(&path)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            write_csv(&table, &mut file, b',')
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            tables.push((name.clone(), path));
        }
        inputs.push(Input {
            case: *case,
            fact_table: g.dataset.fact_table.clone(),
            tables,
            relationships: g.dataset.relationships.clone(),
            target: g.target.clone(),
            task: g.task,
            bytes,
        });
    }
    Ok(inputs)
}

/// What one operation produced.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    pub digest: Digest,
    pub llm: LlmTally,
    pub score: Option<f64>,
    pub attempts: usize,
    pub handcrafted: bool,
    pub refine_llm_calls: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    /// Final pipeline source (empty for collect-only operations).
    pub source: String,
}

/// The stack a `catdb run` builds: the resilient simulated client with
/// fault injection off.
fn backend() -> ResilientClient {
    ResilientClient::simulated(
        ModelProfile::gpt_4o(),
        FaultSpec::from_rate(0.0),
        RetryPolicy::default(),
        LLM_SEED,
    )
}

/// Run one operation through the public entry points: `read_csv_path`
/// per table, `catdb_collect` (profile + refine), then — unless the
/// case is collect-only — `catdb_pipgen`. With a sink, benchmark spans
/// mark each call and the metered LLM records its calls there too.
pub fn run_op(input: &Input, sink: Option<&Arc<TraceSink>>) -> Result<OpResult, String> {
    let backend = backend();
    let llm = MeteredLlm::new(&backend, sink.cloned());
    let _installed = sink.map(|s| catdb_trace::install(s.clone()));
    let _op = catdb_trace::span(SPAN_OP);

    let mut tables = Vec::with_capacity(input.tables.len());
    for (name, path) in &input.tables {
        let _read = catdb_trace::span(SPAN_READ_CSV);
        let table = read_csv_path(path, &CsvOptions::default())
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        tables.push((name.clone(), table));
    }
    let dataset = MultiTableDataset {
        name: input.case.dataset.to_string(),
        fact_table: input.fact_table.clone(),
        tables,
        relationships: input.relationships.clone(),
    };
    let opts = CollectOptions { refine: true, ..Default::default() };
    let (entry, prepared, report) = {
        let _collect = catdb_trace::span(SPAN_COLLECT);
        catdb_collect(&dataset, &input.target, input.task, &llm, &opts)
            .map_err(|e| format!("collect {}: {e}", input.case.dataset))?
    };
    let refine_llm_calls = report.as_ref().map_or(0, |r| r.llm_calls);
    let mut digest = Digest::default().str(input.case.dataset).u64(prepared.n_rows() as u64);
    for c in &entry.profile.columns {
        digest = digest
            .str(&c.name)
            .str(c.data_type.name())
            .str(c.feature_type.label())
            .u64(c.distinct_count as u64);
    }
    for r in report.iter().flat_map(|r| &r.refinements) {
        digest = digest.str(&r.column).str(r.action.label());
    }

    let Some(beta) = input.case.beta else {
        let llm_tally = llm.tally();
        return Ok(OpResult {
            digest: digest.u64(llm_tally.billed_tokens()),
            llm: llm_tally,
            refine_llm_calls,
            ..Default::default()
        });
    };
    let cache = Arc::new(CompletionCache::new(SESSION_CACHE_CAPACITY));
    let cfg = CatDbConfig {
        prompt: PromptOptions { beta, ..Default::default() },
        seed: LLM_SEED,
        llm_cache: Some(cache.clone()),
        ..Default::default()
    };
    let result = {
        let _pipgen = catdb_trace::span(SPAN_PIPGEN);
        catdb_pipgen(&entry, &prepared, &llm, &cfg)
            .map_err(|e| format!("pipgen {}: {e}", input.case.dataset))?
    };
    let outcome = &result.results;
    if !outcome.success {
        return Err(format!("{} (β={beta}): no executable pipeline", input.case.dataset));
    }
    let score = outcome.evaluation.as_ref().map(|e| e.test.headline());
    let llm_tally = llm.tally();
    let stats = cache.stats();
    Ok(OpResult {
        digest: digest
            .u64(beta as u64)
            .str(&result.code)
            .f64(score.unwrap_or(f64::NAN))
            .u64(llm_tally.billed_tokens()),
        llm: llm_tally,
        score,
        attempts: outcome.attempts,
        handcrafted: outcome.handcrafted,
        refine_llm_calls,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_insertions: stats.insertions,
        source: result.code,
    })
}

/// [`run_op`] with panics turned into failures.
fn run_guarded(input: &Input, sink: Option<&Arc<TraceSink>>) -> Result<OpResult, String> {
    catch_unwind(AssertUnwindSafe(|| run_op(input, sink))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("{} panicked: {msg}", input.case.dataset))
    })
}

/// Per-layer totals over the traced operations of a run.
#[derive(Default)]
struct Layers {
    ops: u64,
    breakdown: Breakdown,
    counters: BTreeMap<String, f64>,
    llm: LlmTally,
    tree_fit_micros: u64,
    executions: u64,
    parse_seconds: f64,
    attempts: u64,
    handcrafted: u64,
    refine_llm_calls: u64,
    cache_hits: u64,
    cache_lookups: u64,
    cache_insertions: u64,
    scores: Vec<f64>,
}

impl Layers {
    fn record(&mut self, trace: &Trace, r: &OpResult) {
        self.ops += 1;
        self.breakdown.add(&Breakdown::of(trace));
        for (name, v) in &trace.counters {
            *self.counters.entry(name.clone()).or_insert(0.0) += v;
        }
        self.llm.add(&r.llm);
        self.tree_fit_micros +=
            trace.spans_named("tree_fit").iter().filter_map(|s| s.duration_micros()).sum::<u64>();
        self.executions += trace.spans_named("execute_pipeline").len() as u64;
        if !r.source.is_empty() {
            // Replay the final program through the parser alone.
            const REPLAYS: u32 = 20;
            let started = Instant::now();
            for _ in 0..REPLAYS {
                std::hint::black_box(catdb_pipeline::parse(std::hint::black_box(&r.source)).ok());
            }
            self.parse_seconds += started.elapsed().as_secs_f64() / REPLAYS as f64;
        }
        self.attempts += r.attempts as u64;
        self.handcrafted += r.handcrafted as u64;
        self.refine_llm_calls += r.refine_llm_calls as u64;
        self.cache_hits += r.cache_hits;
        self.cache_lookups += r.cache_hits + r.cache_misses;
        self.cache_insertions += r.cache_insertions;
        self.scores.extend(r.score);
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

/// Number of passes a run makes: enough to fill `seconds` on the
/// reference host, at least two so trace mode has both halves, and at
/// least twenty operations so the tail percentile has ten beyond it.
pub fn passes(mix: &Mix, seconds: f64) -> usize {
    let for_tail = 20usize.div_ceil(mix.cases.len());
    ((seconds / mix.pass_seconds).ceil() as usize).max(2).max(for_tail)
}

/// Whether operation `c` of pass `pass` runs traced in trace mode: a
/// checkerboard, so every case is measured both ways.
fn traced_op(pass: usize, c: usize) -> bool {
    (pass + c) % 2 == 1
}

/// Latencies of one case's operations, optionally only the traced or
/// the untraced ones.
fn latency_of(ops: &[(f64, bool)], traced: Option<bool>) -> Vec<f64> {
    ops.iter().filter(|(_, t)| traced.is_none_or(|want| *t == want)).map(|(l, _)| *l).collect()
}

/// Run a mix: [`passes`] passes of fixed work. In trace mode half of the
/// operations (see [`traced_op`]) run under a fresh sink each, the rest
/// untraced, so the run measures its own tracing overhead.
pub fn run_mix(ctx: &Ctx, mix: &Mix) -> Outcome {
    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let (mut setup, mut walls, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    // Per case: (latency, traced) of every operation.
    let mut by_case: Vec<Vec<(f64, bool)>> = vec![Vec::new(); mix.cases.len()];
    let mut billed = 0u64;
    let mut layers = Layers::default();
    for pass in 0..passes(mix, ctx.seconds) {
        let dir = ctx.dir.join(format!("pass-{pass}"));
        let t = Instant::now();
        let inputs = match write_inputs(&dir, mix, ctx.seed, pass) {
            Ok(inputs) => inputs,
            Err(e) => {
                out.fail(e);
                break;
            }
        };
        setup.push(t.elapsed().as_secs_f64());
        let pass_started = Instant::now();
        for (c, input) in inputs.iter().enumerate() {
            let traced = ctx.trace && traced_op(pass, c);
            let sink = traced.then(|| Arc::new(TraceSink::new()));
            let t = Instant::now();
            let result = run_guarded(input, sink.as_ref());
            let latency = t.elapsed().as_secs_f64();
            out.attempted += 1;
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            latencies.push(latency);
            by_case[c].push((latency, traced));
            if let Some(sink) = &sink {
                let trace = sink.snapshot();
                // A cold input misses the profile memo on its first lookup.
                // (Refinement re-profiles the prepared table, which hits when
                // refinement left the table unchanged: that hit is the
                // program's own reuse, not a stale input.)
                if !trace.counters.contains_key(COUNTER_PROFILE_MEMO_MISSES) {
                    out.guard(format!(
                        "{} (pass {pass}) never missed the profile memo: its input is not fresh",
                        input.case.dataset
                    ));
                }
                layers.record(&trace, &r);
            }
            digest = digest.u64(r.digest.value());
            billed += r.llm.billed_tokens();
        }
        walls.push(pass_started.elapsed().as_secs_f64());
        eprintln!(
            "[pass {pass}: {} operations on {:.1} MB of CSV in {:.3} s, set-up {:.3} s]",
            inputs.len(),
            inputs.iter().map(|i| i.bytes).sum::<u64>() as f64 / 1e6,
            walls[walls.len() - 1],
            setup[setup.len() - 1]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.digest = digest;

    let ops = latencies.len().max(1) as f64;
    let wall = mean(&walls);
    let tail = tail_percentile(&latencies);
    if let Some((p, _)) = tail {
        eprintln!("[tail latency is p{p} over {} operations]", latencies.len());
    }
    out.end_to_end = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("wall_s", wall, "s"),
        Metric::new("requests_per_s", ops / walls.iter().sum::<f64>(), "1/s"),
        // The median case's median: pooled, the median of a mix of fast
        // and slow cases flips between the two clusters from run to run.
        Metric::new(
            "request_p50_ms",
            median(&by_case.iter().map(|ops| median(&latency_of(ops, None))).collect::<Vec<_>>())
                * 1e3,
            "ms",
        ),
        Metric::new("request_tail_ms", tail.map_or(0.0, |(_, v)| v) * 1e3, "ms"),
        Metric::new("billed_tokens", billed as f64 / ops, "tokens"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
    ];

    // Tracing overhead: per case, mean traced over mean untraced latency;
    // the median over cases.
    let means = |traced| by_case.iter().map(move |ops| mean(&latency_of(ops, Some(traced))));
    let overheads: Vec<f64> = means(true)
        .zip(means(false))
        .filter(|(t, u)| *t > 0.0 && *u > 0.0)
        .map(|(t, u)| t / u)
        .collect();
    let untraced_ms: f64 = means(false).sum::<f64>() * 1e3;
    let n = layers.ops.max(1) as f64;
    let ms = |micros: u64| micros as f64 / 1e3 / n;
    let b = &layers.breakdown;
    let pct = |micros: u64| 100.0 * micros as f64 / b.wall.max(1) as f64;
    let profile_memo_hits = layers.counter(COUNTER_PROFILE_MEMO_HITS);
    let memo_lookups = profile_memo_hits + layers.counter(COUNTER_PROFILE_MEMO_MISSES);
    out.per_layer = vec![
        Metric::new("table.ingest_ms", ms(b.table), "ms"),
        Metric::new(
            "table.ingest_mb_per_s",
            layers.counter(catdb_table::COUNTER_CSV_BYTES) / 1e6 / (b.table as f64 / 1e6).max(1e-9),
            "MB/s",
        ),
        Metric::new("profiler.profile_ms", ms(b.profiler), "ms"),
        Metric::new("profiler.memo_hit_ratio", ratio(profile_memo_hits, memo_lookups), "ratio"),
        Metric::new("profiler.memo_lookups", memo_lookups / n, "count"),
        Metric::new("catalog.refine_ms", ms(b.refine_self), "ms"),
        Metric::new("catalog.refine_llm_calls", layers.refine_llm_calls as f64 / n, "count"),
        Metric::new("core.generate_self_ms", ms(b.generate_self), "ms"),
        Metric::new("core.attempts", layers.attempts as f64 / n, "count"),
        Metric::new("core.handcrafted", layers.handcrafted as f64 / n, "count"),
        Metric::new("core.mean_test_score", mean(&layers.scores), "score"),
        Metric::new("llm.calls", layers.llm.calls as f64 / n, "count"),
        Metric::new("llm.complete_ms", layers.llm.busy_seconds * 1e3 / n, "ms"),
        Metric::new("llm.prompt_tokens", layers.llm.prompt_tokens as f64 / n, "tokens"),
        Metric::new("llm.completion_tokens", layers.llm.completion_tokens as f64 / n, "tokens"),
        Metric::new("llm.sim_s", layers.llm.sim_seconds / n, "s"),
        Metric::new(
            "sched.cache_hit_ratio",
            ratio(layers.cache_hits as f64, layers.cache_lookups as f64),
            "ratio",
        ),
        Metric::new("sched.cache_lookups", layers.cache_lookups as f64 / n, "count"),
        Metric::new("sched.cache_insertions", layers.cache_insertions as f64 / n, "count"),
        Metric::new("pipeline.execute_ms", ms(b.pipeline_ml), "ms"),
        Metric::new("pipeline.executions", layers.executions as f64 / n, "count"),
        Metric::new("pipeline.parse_ms", layers.parse_seconds * 1e3 / n, "ms"),
        Metric::new("ml.tree_fit_ms", ms(layers.tree_fit_micros), "ms"),
        Metric::new("ml.hist_builds", layers.counter("ml.hist_builds") / n, "count"),
        Metric::new("runtime.tasks", layers.counter(catdb_runtime::COUNTER_TASKS) / n, "count"),
        Metric::new("runtime.steals", layers.counter(catdb_runtime::COUNTER_STEALS) / n, "count"),
        Metric::new("serve.admitted", 0.0, "count"),
        Metric::new("serve.shed", 0.0, "count"),
        Metric::new("serve.wire_bytes", 0.0, "bytes"),
        Metric::new("trace.overhead_pct", 100.0 * (median(&overheads) - 1.0), "%"),
        Metric::new("trace.base_ms", untraced_ms, "ms"),
        Metric::new("breakdown.wall_ms", ms(b.wall), "ms"),
    ];
    for (layer, micros) in b.rows() {
        out.per_layer.push(Metric::new(breakdown_name(layer), pct(micros), "%"));
    }
    if ctx.trace {
        print_breakdown(b, layers.ops);
    }
    out
}

pub fn breakdown_name(layer: &str) -> &'static str {
    match layer {
        "table" => "breakdown.table_pct",
        "catalog" => "breakdown.catalog_pct",
        "profiler" => "breakdown.profiler_pct",
        "llm" => "breakdown.llm_pct",
        "core" => "breakdown.core_pct",
        "pipeline+ml" => "breakdown.pipeline_ml_pct",
        _ => "breakdown.unattributed_pct",
    }
}

/// Self time per layer over the traced operations, on stderr.
fn print_breakdown(b: &Breakdown, ops: u64) {
    eprintln!("[self time per layer over {ops} traced operation(s)]");
    eprintln!("  {:<14} {:>12} {:>7}", "layer", "ms", "share");
    for (layer, micros) in b.rows() {
        let share = 100.0 * micros as f64 / b.wall.max(1) as f64;
        eprintln!("  {layer:<14} {:>12.1} {share:>6.1}%", micros as f64 / 1e3);
    }
    eprintln!("  {:<14} {:>12.1} {:>6.1}%", "wall", b.wall as f64 / 1e3, 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_core::measured_cost;

    const SMALL: Mix =
        Mix { cases: &[run("cmc", 1), collect("airline")], rows: 200, pass_seconds: 1.0 };

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("e2ebench-{tag}-{}", std::process::id()))
    }

    #[test]
    fn the_seed_changes_the_inputs_but_not_the_amount_of_work() {
        let (a, b) = (scratch("seed-a"), scratch("seed-b"));
        let ia = write_inputs(&a, &SMALL, 1, 0).unwrap();
        let ib = write_inputs(&b, &SMALL, 2, 0).unwrap();
        let ia_again = write_inputs(&scratch("seed-a2"), &SMALL, 1, 0).unwrap();
        let shape = |i: &Input| -> Vec<(usize, usize)> {
            let opts = CsvOptions::default();
            let read = |p: &PathBuf| read_csv_path(p, &opts).unwrap();
            i.tables.iter().map(|(_, p)| read(p)).map(|t| (t.n_rows(), t.n_cols())).collect()
        };
        for ((x, y), z) in ia.iter().zip(&ib).zip(&ia_again) {
            assert_eq!(x.bytes, y.bytes, "{:?}", x.case);
            assert_eq!(shape(x), shape(y), "{:?}", x.case);
            let read = |p: &PathBuf| std::fs::read(p).unwrap();
            assert_ne!(read(&x.tables[0].1), read(&y.tables[0].1), "same bytes for another seed");
            assert_eq!(read(&x.tables[0].1), read(&z.tables[0].1), "same seed, other bytes");
        }
        // Another pass draws other tables, so nothing is seen twice.
        let next = write_inputs(&scratch("seed-c"), &SMALL, 1, 1).unwrap();
        assert_ne!(
            std::fs::read(&ia[0].tables[0].1).unwrap(),
            std::fs::read(&next[0].tables[0].1).unwrap()
        );
        for tag in ["seed-a", "seed-b", "seed-a2", "seed-c"] {
            let _ = std::fs::remove_dir_all(scratch(tag));
        }
    }

    #[test]
    fn metering_and_tracing_leave_the_output_digest_unchanged() {
        let dir = scratch("digest");
        let inputs = write_inputs(&dir, &SMALL, 3, 0).unwrap();
        for input in &inputs {
            let untraced = run_op(input, None).unwrap();
            let sink = Arc::new(TraceSink::new());
            let traced = run_op(input, Some(&sink)).unwrap();
            assert_eq!(untraced.digest, traced.digest, "{:?}", input.case);
            let trace = sink.snapshot();
            // The wrapper bills exactly what the crates' own accounting does.
            assert_eq!(
                traced.llm.billed_tokens() as usize,
                measured_cost(&trace).total_tokens(),
                "{:?}",
                input.case
            );
            let b = Breakdown::of(&trace);
            assert!(b.wall > 0 && b.attributed() <= b.wall, "{b:?}");
        }
        // The bare backend, without the wrapper, generates the same pipeline.
        let run = &inputs[0];
        let backend = backend();
        let tables = run
            .tables
            .iter()
            .map(|(n, p)| (n.clone(), read_csv_path(p, &CsvOptions::default()).unwrap()))
            .collect();
        let dataset = MultiTableDataset {
            name: run.case.dataset.to_string(),
            fact_table: run.fact_table.clone(),
            tables,
            relationships: run.relationships.clone(),
        };
        let opts = CollectOptions { refine: true, ..Default::default() };
        let (entry, prepared, _) =
            catdb_collect(&dataset, &run.target, run.task, &backend, &opts).unwrap();
        let cfg = CatDbConfig { seed: LLM_SEED, ..Default::default() };
        let bare = catdb_pipgen(&entry, &prepared, &backend, &cfg).unwrap();
        assert_eq!(bare.code, run_op(run, None).unwrap().source);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn passes_fill_the_requested_seconds() {
        assert_eq!(passes(&PAPER_RUNS, 30.0), 10);
        assert_eq!(passes(&WIDE_PROFILE, 30.0), 12);
        assert_eq!(passes(&PAPER_RUNS, 0.1), 3);
        assert_eq!(passes(&WIDE_PROFILE, 0.1), 4);
    }
}
