//! Pipeline generation and validation — paper Algorithm 4 (single prompt)
//! and the CatDB Chain variant (Figure 6), with the Figure 7 error
//! management: knowledge-base fixes first, then LLM error prompts (with
//! projected catalog metadata for runtime errors), bounded by τ₂ attempts,
//! and a handcrafted fallback so no dataset is ever left without a
//! pipeline (the paper's HANDCRAFTPIPELINE / "no silent errors" guarantee).

use crate::kb::{ErrorTrace, FixedBy, KbFix, KnowledgeBase};
use crate::prompt::{PromptBuilder, PromptOptions};
use catdb_catalog::CatalogEntry;
use catdb_llm::{CostLedger, LanguageModel, LlmError, LlmTaskKind, Prompt};
use catdb_ml::TaskKind;
use catdb_pipeline::{
    execute, parse, ColumnRef, EncodeSpec, Environment, ErrorCategory, Evaluation, ExecutionConfig,
    ImputeSpec, ModelAlgo, ModelFamily, ModelSpec, PipelineError, Program, Step,
};
use catdb_sched::{CompletionCache, LlmScheduler, DEFAULT_LLM_CONCURRENCY};
use catdb_table::{DataType, Table};
use std::sync::Arc;
use std::time::Instant;

/// Entries held by a session-scoped (non-shared) completion cache. Large
/// enough that a single generation session never evicts.
const SESSION_CACHE_CAPACITY: usize = 4096;

/// Span wrapping one [`generate_pipeline`] call: every attempt, its
/// LLM calls and its pipeline executions.
pub const SPAN_GENERATE_PIPELINE: &str = "generate_pipeline";

/// CatDB generation configuration.
#[derive(Debug, Clone)]
pub struct CatDbConfig {
    pub prompt: PromptOptions,
    /// τ₂ — maximum error-correction attempts (the single-iteration
    /// experiments allow up to 15).
    pub max_fix_attempts: usize,
    /// Rows sampled for the quick local validation run.
    pub validation_rows: usize,
    pub seed: u64,
    /// Ablation switches for the error-management study.
    pub use_knowledge_base: bool,
    pub use_llm_fix: bool,
    pub handcraft_fallback: bool,
    /// Library compliance (the paper's Section 4.3 future-work item):
    /// packages organizations disallow. Generated pipelines are locally
    /// rewritten to avoid them (boosting/tabpfn fall back to preinstalled
    /// algorithms; their `require` lines are dropped).
    pub disallowed_packages: Vec<String>,
    /// Maximum simultaneously in-flight LLM requests when fanning out
    /// independent prompts (`--llm-concurrency`). Chunk-ordered assembly
    /// keeps results byte-identical at any value.
    pub llm_concurrency: usize,
    /// Pre-built cache handle, shared across sessions (e.g. one cache
    /// spanning a whole config sweep, or a persistent one behind
    /// `--llm-cache`).
    pub llm_cache: Option<Arc<CompletionCache>>,
}

impl Default for CatDbConfig {
    fn default() -> Self {
        CatDbConfig {
            prompt: PromptOptions::default(),
            max_fix_attempts: 15,
            validation_rows: 400,
            seed: 42,
            use_knowledge_base: true,
            use_llm_fix: true,
            handcraft_fallback: true,
            disallowed_packages: Vec::new(),
            llm_concurrency: DEFAULT_LLM_CONCURRENCY,
            llm_cache: None,
        }
    }
}

impl CatDbConfig {
    /// The completion cache this config asks for: the shared handle if
    /// one was provided, else a fresh session-local cache.
    pub fn completion_cache(&self) -> Arc<CompletionCache> {
        self.llm_cache
            .clone()
            .unwrap_or_else(|| Arc::new(CompletionCache::new(SESSION_CACHE_CAPACITY)))
    }
}

/// The result of one generation session.
#[derive(Debug, Clone)]
pub struct GenerationOutcome {
    /// Final pipeline source (possibly handcrafted).
    pub source: String,
    pub program: Option<Program>,
    pub evaluation: Option<Evaluation>,
    pub ledger: CostLedger,
    pub traces: Vec<ErrorTrace>,
    /// Simulated LLM latency (generation + fixes), seconds.
    pub llm_seconds: f64,
    /// Wall-clock seconds of the local work (validation + execution).
    pub elapsed_seconds: f64,
    pub attempts: usize,
    pub success: bool,
    /// True when the handcrafted fallback produced the final pipeline.
    pub handcrafted: bool,
}

/// Enforce library compliance: drop `require` lines naming disallowed
/// packages and rewrite model algorithms that would import them onto
/// preinstalled alternatives. Purely local and deterministic — compliance
/// must not depend on LLM cooperation.
fn enforce_library_policy(source: &str, disallowed: &[String]) -> String {
    if disallowed.is_empty() {
        return source.to_string();
    }
    let banned = |pkg: &str| disallowed.iter().any(|d| d == pkg);
    source
        .lines()
        .filter_map(|line| {
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("require ") {
                if let Some(pkg) = rest.trim().strip_prefix('"').and_then(|r| r.split('"').next()) {
                    let name = pkg.split("==").next().unwrap_or(pkg);
                    if banned(name) {
                        return None;
                    }
                }
            }
            let mut out = line.to_string();
            if banned("boosting") {
                out = out.replace("gradient_boosting", "random_forest");
            }
            if banned("tabpfn") {
                out = out.replace(" tabpfn ", " random_forest ");
            }
            if banned("imbalanced")
                && (out.trim_start().starts_with("augment ")
                    || out.trim_start().starts_with("rebalance "))
            {
                return None;
            }
            if banned("text_features")
                && (out.contains("method khot") || out.contains("method hash"))
            {
                // Fall back to the preinstalled encoder.
                let idx = out.find("method").expect("encode line");
                out = format!("{}method onehot;", &out[..idx]);
            }
            if banned("outlier_tools") && out.contains("method lof") {
                out = "  outliers * method iqr factor 1.5;".to_string();
            }
            Some(out)
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// The paper's "automatic method for extracting required packages and
/// creating local environments": before running a pipeline, install every
/// package its `require` declarations name (unpinned, index-known ones).
/// Packages a faulty generation *forgot* to declare — or declared with a
/// stale pin or a hallucinated name — still surface as KB-class errors at
/// execution, which is exactly the paper's missing-package error channel.
fn preinstall_requirements(source: &str, env: &mut Environment) {
    for line in source.lines() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix("require ") else { continue };
        let Some(pkg) = rest.trim().strip_prefix('"').and_then(|r| r.split('"').next()) else {
            continue;
        };
        if !pkg.contains("==") {
            let _ = env.install(pkg);
        }
    }
}

/// Quoted column names in an error message that exist in the catalog
/// (drives GETCATALOGDATA's metadata projection for runtime errors).
fn referenced_columns(entry: &CatalogEntry, message: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = message;
    while let Some(open) = rest.find('\'') {
        let Some(close) = rest[open + 1..].find('\'') else { break };
        let name = &rest[open + 1..open + 1 + close];
        if entry.column(name).is_some() && !out.iter().any(|n| n == name) {
            out.push(name.to_string());
        }
        rest = &rest[open + 1 + close + 1..];
    }
    out
}

/// The deterministic fallback pipeline built straight from the catalog.
pub fn handcraft_program(entry: &CatalogEntry) -> Program {
    let mut steps = Vec::new();
    steps.push(Step::Impute { column: ColumnRef::All, strategy: ImputeSpec::Median });
    steps.push(Step::Impute { column: ColumnRef::All, strategy: ImputeSpec::MostFrequent });
    let mut needs_text_features = false;
    for col in entry.feature_columns() {
        if col.data_type != DataType::Str {
            continue;
        }
        let method = match col.feature_type {
            catdb_profiler::FeatureType::List => {
                needs_text_features = true;
                EncodeSpec::KHot { separator: ",".into() }
            }
            _ if col.distinct_count > 50 => {
                needs_text_features = true;
                EncodeSpec::Hash { buckets: 32 }
            }
            _ => EncodeSpec::OneHot,
        };
        steps.push(Step::Encode { column: ColumnRef::Named(col.name.clone()), method });
    }
    if needs_text_features {
        steps.insert(0, Step::Require { package: "text_features".into() });
    }
    let family = if entry.task_kind() == TaskKind::Regression {
        ModelFamily::Regressor
    } else {
        ModelFamily::Classifier
    };
    steps.push(Step::Model(ModelSpec {
        family,
        algo: ModelAlgo::RandomForest,
        target: entry.target.clone(),
        params: vec![("trees".into(), 60.0), ("depth".into(), 12.0)],
    }));
    Program::new(steps)
}

struct Session<'a> {
    entry: &'a CatalogEntry,
    builder: PromptBuilder<'a>,
    /// Every completion goes through the scheduler: cache lookups,
    /// in-flight coalescing, and bounded fan-out sit between the session
    /// and the underlying (possibly resilient) model.
    sched: LlmScheduler<'a>,
    cfg: &'a CatDbConfig,
    env: Environment,
    kb: KnowledgeBase,
    ledger: CostLedger,
    traces: Vec<ErrorTrace>,
    llm_seconds: f64,
}

impl Session<'_> {
    fn record(&mut self, error: &PipelineError, attempt: usize, fixed_by: FixedBy) {
        catdb_trace::emit(catdb_trace::TraceEvent::ErrorIteration {
            kind: error.kind.code().to_string(),
            attempt,
        });
        self.traces.push(ErrorTrace {
            dataset: self.entry.dataset_name.clone(),
            llm: self.sched.model_name().to_string(),
            kind: error.kind,
            category: error.kind.category(),
            attempt,
            fixed_by,
        });
    }

    /// Submit a generation-stage prompt (context-overflow falls back to
    /// top-K column reduction via α, halving until the prompt fits).
    fn complete_generation(&mut self, task: LlmTaskKind, code: Option<&str>) -> Option<String> {
        let mut opts = self.builder_opts();
        for _ in 0..6 {
            let builder = PromptBuilder::new(self.entry, opts.clone());
            let prompt = match task {
                LlmTaskKind::PipelineGeneration => builder.single_prompt(),
                _ => {
                    let cols = builder.select_columns();
                    builder.stage_prompt(task, &cols, code)
                }
            };
            match self.sched.complete(&prompt) {
                Ok(c) => {
                    self.ledger.record_generation(c.usage);
                    self.llm_seconds += c.latency_seconds;
                    return Some(c.text);
                }
                Err(LlmError::ContextLengthExceeded { .. }) => {
                    // "We reduce the number of features via the parameter α"
                    let current = opts.alpha.unwrap_or(self.entry.profile.columns.len());
                    if current <= 4 {
                        return None;
                    }
                    opts.alpha = Some(current / 2);
                }
                // Transport failures (5xx, timeouts, rate limits) that
                // survived the client's own retry/degradation budget:
                // resubmit at this level until the attempt cap runs out.
                Err(_) => continue,
            }
        }
        None
    }

    fn builder_opts(&self) -> PromptOptions {
        // PromptBuilder holds the canonical options; clone them for local
        // mutation (α reduction on overflow).
        self.cfg.prompt.clone()
    }

    /// Submit an error-fix prompt. A recurring identical (source, error)
    /// pair renders the identical prompt, so the scheduler's cache
    /// short-circuits it without an upstream call — the returned flag
    /// reports that, and the attempt log records it as
    /// [`FixedBy::CachedLlmFix`].
    fn complete_fix(&mut self, source: &str, error: &PipelineError) -> Option<(String, bool)> {
        let include_metadata = error.kind.category() == ErrorCategory::Runtime;
        let relevant = referenced_columns(self.entry, &error.message);
        let prompt =
            self.builder.error_prompt(source, &error.render(), include_metadata, &relevant);
        match self.sched.complete_cached(&prompt) {
            Ok((c, cached)) => {
                self.ledger.record_error_fix(c.usage);
                self.llm_seconds += c.latency_seconds;
                Some((c.text, cached))
            }
            Err(_) => None,
        }
    }

    /// Handle one failure: KB first, then LLM. Returns the next source to
    /// try, or `None` when unfixable through the enabled channels.
    fn handle_error(
        &mut self,
        source: String,
        error: &PipelineError,
        attempt: usize,
    ) -> Option<String> {
        if self.cfg.use_knowledge_base {
            match self.kb.try_fix(error, &source, &mut self.env) {
                KbFix::EnvironmentRepaired { .. } | KbFix::Retry => {
                    self.record(error, attempt, FixedBy::KnowledgeBase);
                    return Some(source); // same code, repaired environment
                }
                KbFix::CleanedSource(cleaned) => {
                    let by = if error.kind.category() == ErrorCategory::Syntax {
                        FixedBy::LocalSyntaxCleanup
                    } else {
                        FixedBy::KnowledgeBase
                    };
                    self.record(error, attempt, by);
                    return Some(cleaned);
                }
                KbFix::NotFixable => {}
            }
        }
        if self.cfg.use_llm_fix {
            if let Some((fixed, cached)) = self.complete_fix(&source, error) {
                let by = if cached { FixedBy::CachedLlmFix } else { FixedBy::LlmResubmission };
                self.record(error, attempt, by);
                return Some(fixed);
            }
        }
        self.record(error, attempt, FixedBy::Unfixed);
        None
    }
}

/// Run CatDB pipeline generation end to end over prepared train/test
/// tables. `beta` in the prompt options picks single-prompt vs chain.
pub fn generate_pipeline(
    entry: &CatalogEntry,
    train: &Table,
    test: &Table,
    llm: &dyn LanguageModel,
    cfg: &CatDbConfig,
) -> GenerationOutcome {
    let _span = catdb_trace::span(SPAN_GENERATE_PIPELINE);
    let started = Instant::now();
    let mut session = Session {
        entry,
        builder: PromptBuilder::new(entry, cfg.prompt.clone()),
        sched: scheduler_for(llm, cfg),
        cfg,
        env: Environment::default(),
        kb: KnowledgeBase,
        ledger: CostLedger::default(),
        traces: Vec::new(),
        llm_seconds: 0.0,
    };

    // ---- Initial generation ----
    let initial = if cfg.prompt.beta <= 1 {
        session.complete_generation(LlmTaskKind::PipelineGeneration, None)
    } else {
        generate_chain(&mut session)
    };

    let task = entry.task_kind();
    let exec_cfg = ExecutionConfig { seed: cfg.seed, ..ExecutionConfig::new(task) };
    let val_train = train.sample(cfg.validation_rows, cfg.seed);
    let val_test = test.sample((cfg.validation_rows / 3).max(30), cfg.seed ^ 1);
    let val_cfg = ExecutionConfig { fast_validation: true, ..exec_cfg.clone() };

    // ---- Validation & error-management loop (Algorithm 4, lines 3–15) ----
    let mut source = initial.unwrap_or_else(|| handcraft_program(entry).render());
    let mut outcome_eval: Option<(Program, Evaluation)> = None;
    let mut attempts = 0;
    while attempts < cfg.max_fix_attempts {
        attempts += 1;
        source = enforce_library_policy(&source, &cfg.disallowed_packages);
        preinstall_requirements(&source, &mut session.env);
        // Parse (syntax check).
        let program = match parse(&source) {
            Ok(p) => p,
            Err(e) => match session.handle_error(source.clone(), &e, attempts) {
                Some(next) => {
                    source = next;
                    continue;
                }
                None => break,
            },
        };
        // Runtime check on a local validation sample.
        if let Err(e) = execute(&program, &val_train, &val_test, &session.env, &val_cfg) {
            match session.handle_error(source.clone(), &e, attempts) {
                Some(next) => {
                    source = next;
                    continue;
                }
                None => break,
            }
        }
        // Full run.
        match execute(&program, train, test, &session.env, &exec_cfg) {
            Ok(eval) => {
                source = program.render();
                outcome_eval = Some((program, eval));
                break;
            }
            Err(e) => match session.handle_error(source.clone(), &e, attempts) {
                Some(next) => {
                    source = next;
                    continue;
                }
                None => break,
            },
        }
    }

    // ---- Handcrafted fallback (VERIFYPIPELINECODE / HANDCRAFTPIPELINE) ----
    let mut handcrafted = false;
    if outcome_eval.is_none() && cfg.handcraft_fallback {
        // The last step of the degradation ladder: no LLM (resilient or
        // otherwise) produced a working pipeline, so CatDB falls back to
        // the deterministic catalog-derived program.
        catdb_trace::emit(catdb_trace::TraceEvent::Degraded {
            from: llm.model_name().to_string(),
            to: "handcraft_program".to_string(),
            reason: "generation_exhausted".to_string(),
        });
        let program = handcraft_program(entry);
        let mut env = session.env.clone();
        for pkg in catdb_pipeline::required_packages(&program.steps) {
            let _ = env.install(pkg);
        }
        if let Ok(eval) = execute(&program, train, test, &env, &exec_cfg) {
            source = program.render();
            if let Some(last) = session.traces.last_mut() {
                last.fixed_by = FixedBy::Handcrafted;
            }
            outcome_eval = Some((program, eval));
            handcrafted = true;
        }
    }

    let success = outcome_eval.is_some();
    let (program, evaluation) = match outcome_eval {
        Some((p, e)) => (Some(p), Some(e)),
        None => (None, None),
    };
    GenerationOutcome {
        source,
        program,
        evaluation,
        ledger: session.ledger,
        traces: session.traces,
        llm_seconds: session.llm_seconds,
        elapsed_seconds: started.elapsed().as_secs_f64(),
        attempts,
        success,
        handcrafted,
    }
}

/// Build the per-session scheduler: the configured cache, the configured
/// fan-out bound, and a decode tag carrying the sampling seed (the
/// simulator's output is seed-dependent, so a persisted cache entry from
/// another seed must never be served).
fn scheduler_for<'a>(llm: &'a dyn LanguageModel, cfg: &CatDbConfig) -> LlmScheduler<'a> {
    LlmScheduler::new(llm, cfg.completion_cache())
        .with_concurrency(cfg.llm_concurrency)
        .with_decode_tag(format!("seed={}", cfg.seed))
}

/// Merge chain stage outputs into one program in chunk order: keep each
/// stage's step lines, drop wrappers and `require` declarations (the
/// model-selection stage recomputes requires over the whole body, exactly
/// as the simulator does for accumulated `<CODE>`).
fn merge_chain_code<'a>(stage_outputs: impl IntoIterator<Item = &'a String>) -> String {
    let mut lines = vec!["pipeline {".to_string()];
    for text in stage_outputs {
        for line in text.lines() {
            let t = line.trim();
            if t.is_empty()
                || t == "pipeline {"
                || t == "}"
                || t.starts_with('#')
                || t.starts_with("require ")
            {
                continue;
            }
            lines.push(format!("  {t}"));
        }
    }
    lines.push("}".to_string());
    lines.join("\n") + "\n"
}

/// CatDB Chain (Figure 6 / Algorithm 3): per-chunk pre-processing
/// prompts, then per-chunk feature-engineering prompts, then one
/// model-selection prompt over the accumulated `<CODE>`.
///
/// The per-chunk prompts within one stage are mutually independent —
/// each acts on its own catalog partition — so both stages fan out
/// through the scheduler with at most `llm_concurrency` in flight.
/// Results are assembled strictly in chunk order, and the simulated
/// models answer each prompt independently of serving order, so the
/// final pipeline is byte-identical at any concurrency. Model selection
/// stays sequential: it consumes the merged code of *every* chunk, so
/// nothing can overlap with it.
fn generate_chain(session: &mut Session<'_>) -> Option<String> {
    let builder = PromptBuilder::new(session.entry, session.cfg.prompt.clone());
    let chunks = builder.chain_chunks();

    // Collect a fanned-out stage: bill every completion in chunk order,
    // parse-check each chunk ("we verify each pipeline step
    // independently, simplifying error detection"), local cleanup for
    // broken ones. Fails the chain if any chunk failed outright.
    let collect_stage =
        |session: &mut Session<'_>, results: Vec<Result<catdb_llm::Completion, LlmError>>| {
            let mut texts = Vec::with_capacity(results.len());
            let mut failed = false;
            for result in results {
                match result {
                    Ok(c) => {
                        session.ledger.record_generation(c.usage);
                        session.llm_seconds += c.latency_seconds;
                        let mut text = c.text;
                        if let Err(e) = parse(&text) {
                            let cleaned = catdb_llm::clean_pipeline_syntax(&text);
                            session.record(&e, 0, FixedBy::LocalSyntaxCleanup);
                            if parse(&cleaned).is_ok() {
                                text = cleaned;
                            }
                        }
                        texts.push(text);
                    }
                    Err(_) => failed = true,
                }
            }
            if failed {
                None
            } else {
                Some(texts)
            }
        };

    let stage_prompts = |task: LlmTaskKind| -> Vec<Prompt> {
        chunks.iter().map(|chunk| builder.stage_prompt(task, chunk, None)).collect()
    };

    let pre_prompts = stage_prompts(LlmTaskKind::Preprocessing);
    let pre_results = session.sched.complete_many(&pre_prompts);
    let pre_texts = collect_stage(session, pre_results)?;

    let fe_prompts = stage_prompts(LlmTaskKind::FeatureEngineering);
    let fe_results = session.sched.complete_many(&fe_prompts);
    let fe_texts = collect_stage(session, fe_results)?;

    let merged = merge_chain_code(pre_texts.iter().chain(fe_texts.iter()));
    let all: Vec<&catdb_profiler::ColumnProfile> = builder.select_columns();
    let prompt = builder.stage_prompt(LlmTaskKind::ModelSelection, &all, Some(&merged));
    let results = session.sched.complete_many(std::slice::from_ref(&prompt));
    let mut texts = collect_stage(session, results)?;
    texts.pop()
}

/// Chain generation alone — no validation, no error-management loop.
/// Exposes the fan-out path directly so benches can measure pure chain
/// wall-clock against the scheduler without local execution diluting it.
pub fn generate_chain_source(
    entry: &CatalogEntry,
    llm: &dyn LanguageModel,
    cfg: &CatDbConfig,
) -> Option<String> {
    let mut session = Session {
        entry,
        builder: PromptBuilder::new(entry, cfg.prompt.clone()),
        sched: scheduler_for(llm, cfg),
        cfg,
        env: Environment::default(),
        kb: KnowledgeBase,
        ledger: CostLedger::default(),
        traces: Vec::new(),
        llm_seconds: 0.0,
    };
    generate_chain(&mut session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_llm::{ModelProfile, SimLlm};
    use catdb_profiler::{profile_table, ProfileOptions};
    use catdb_table::Column;

    fn dataset() -> (CatalogEntry, Table, Table) {
        let n = 600;
        let age: Vec<Option<f64>> =
            (0..n).map(|i| if i % 13 == 0 { None } else { Some(20.0 + (i % 45) as f64) }).collect();
        let city: Vec<&str> = (0..n).map(|i| ["paris", "rome", "oslo"][i % 3]).collect();
        let y: Vec<String> = (0..n)
            .map(|i| {
                let signal = (i % 45) as f64 + if i % 3 == 0 { 20.0 } else { 0.0 };
                if signal > 30.0 {
                    "yes".to_string()
                } else {
                    "no".to_string()
                }
            })
            .collect();
        let t = Table::from_columns(vec![
            ("age", Column::Float(age)),
            ("city", Column::from_strings(city)),
            ("y", Column::from_strings(y)),
        ])
        .unwrap();
        let profile = profile_table("toy", &t, &ProfileOptions::default());
        let entry = CatalogEntry::new("toy", "y", TaskKind::BinaryClassification, profile);
        let (train, test) = t.train_test_split(0.7, 3).unwrap();
        (entry, train, test)
    }

    #[test]
    fn single_prompt_generation_succeeds_end_to_end() {
        let (entry, train, test) = dataset();
        let llm = SimLlm::new(ModelProfile::gpt_4o(), 11);
        let outcome = generate_pipeline(&entry, &train, &test, &llm, &CatDbConfig::default());
        assert!(outcome.success, "traces: {:?}", outcome.traces);
        let eval = outcome.evaluation.unwrap();
        assert!(eval.test.headline() > 0.6, "{:?}", eval.test);
        assert!(outcome.ledger.n_calls >= 1);
        assert!(outcome.llm_seconds > 0.0);
    }

    #[test]
    fn chain_generation_succeeds_end_to_end() {
        let (entry, train, test) = dataset();
        let llm = SimLlm::new(ModelProfile::gemini_1_5_pro(), 11);
        let cfg = CatDbConfig {
            prompt: PromptOptions { beta: 2, ..Default::default() },
            ..Default::default()
        };
        let outcome = generate_pipeline(&entry, &train, &test, &llm, &cfg);
        assert!(outcome.success, "traces: {:?}", outcome.traces);
        // Chain makes more generation calls than the single prompt.
        assert!(outcome.ledger.n_calls >= 3);
    }

    #[test]
    fn error_prone_model_converges_via_error_management() {
        let (entry, train, test) = dataset();
        // A deliberately unreliable model: every generation carries a
        // semantic fault; fixes succeed at the Llama rate.
        let profile = ModelProfile { semantic_fault_rate: 1.0, ..ModelProfile::llama3_1_70b() };
        let llm = SimLlm::new(profile, 23);
        let outcome = generate_pipeline(&entry, &train, &test, &llm, &CatDbConfig::default());
        assert!(outcome.success);
        assert!(!outcome.traces.is_empty(), "faults must surface as traces");
    }

    #[test]
    fn disabled_error_management_fails_then_fallback_rescues() {
        let (entry, train, test) = dataset();
        let profile = ModelProfile {
            semantic_fault_rate: 1.0,
            syntax_fault_rate: 0.0,
            ..ModelProfile::llama3_1_70b()
        };
        let llm = SimLlm::new(profile, 23);
        let cfg = CatDbConfig {
            use_knowledge_base: false,
            use_llm_fix: false,
            handcraft_fallback: false,
            ..Default::default()
        };
        let outcome = generate_pipeline(&entry, &train, &test, &llm, &cfg);
        assert!(!outcome.success);

        let cfg2 =
            CatDbConfig { use_llm_fix: false, use_knowledge_base: false, ..Default::default() };
        let llm2 = SimLlm::new(
            ModelProfile { semantic_fault_rate: 1.0, ..ModelProfile::llama3_1_70b() },
            23,
        );
        let outcome2 = generate_pipeline(&entry, &train, &test, &llm2, &cfg2);
        assert!(outcome2.success, "handcrafted fallback must rescue");
        assert!(outcome2.handcrafted);
    }

    #[test]
    fn handcrafted_program_is_valid_and_runs() {
        let (entry, train, test) = dataset();
        let program = handcraft_program(&entry);
        let parsed = parse(&program.render()).unwrap();
        assert_eq!(parsed, program);
        let mut env = Environment::default();
        for pkg in catdb_pipeline::required_packages(&program.steps) {
            env.install(pkg).unwrap();
        }
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let eval = execute(&program, &train, &test, &env, &cfg).unwrap();
        assert!(eval.test.headline() > 0.6);
    }

    #[test]
    fn library_policy_is_enforced_locally() {
        let (entry, train, test) = dataset();
        let llm = SimLlm::new(ModelProfile::gpt_4o(), 11);
        let cfg = CatDbConfig {
            disallowed_packages: vec![
                "boosting".to_string(),
                "imbalanced".to_string(),
                "text_features".to_string(),
            ],
            ..Default::default()
        };
        let outcome = generate_pipeline(&entry, &train, &test, &llm, &cfg);
        assert!(outcome.success);
        assert!(!outcome.source.contains("gradient_boosting"), "{}", outcome.source);
        assert!(!outcome.source.contains("require \"boosting\""));
        assert!(!outcome.source.contains("augment method"));
        assert!(!outcome.source.contains("method khot"));
    }

    #[test]
    fn policy_rewrite_preserves_parseability() {
        let src = "pipeline {\n  require \"boosting\";\n  encode \"a\" method khot sep \",\";\n  augment method adasyn target \"y\";\n  outliers * method lof k 5 factor 4;\n  model classifier gradient_boosting target \"y\" rounds 40;\n}\n";
        let out = enforce_library_policy(
            src,
            &[
                "boosting".to_string(),
                "imbalanced".to_string(),
                "text_features".to_string(),
                "outlier_tools".to_string(),
            ],
        );
        let program = parse(&out).expect("rewritten program parses");
        assert!(program.model().unwrap().algo == catdb_pipeline::ModelAlgo::RandomForest);
    }

    #[test]
    fn chain_is_byte_identical_at_any_concurrency() {
        let (entry, _, _) = dataset();
        let mut sources = Vec::new();
        for concurrency in [1usize, 2, 8] {
            let llm = SimLlm::new(ModelProfile::gemini_1_5_pro(), 11);
            let cfg = CatDbConfig {
                prompt: PromptOptions { beta: 2, ..Default::default() },
                llm_concurrency: concurrency,
                ..Default::default()
            };
            sources.push(generate_chain_source(&entry, &llm, &cfg).expect("chain succeeds"));
        }
        assert_eq!(sources[0], sources[1], "concurrency 1 vs 2");
        assert_eq!(sources[0], sources[2], "concurrency 1 vs 8");
        assert!(sources[0].contains("model "), "{}", sources[0]);
    }

    #[test]
    fn routed_chain_is_byte_identical_at_any_concurrency() {
        use catdb_llm::{Role, RouteSpec, RoutedLlm};
        let (entry, _, _) = dataset();
        let spec = RouteSpec::parse("refine=llama,generate=gpt-4o,select=gemini,fix=mini")
            .expect("valid spec");
        let mut sources = Vec::new();
        for concurrency in [1usize, 2, 8] {
            let table: Vec<(Role, Arc<dyn LanguageModel>)> = spec
                .resolve(&ModelProfile::gpt_4o())
                .into_iter()
                .map(|(role, profile)| {
                    (role, Arc::new(SimLlm::new(profile, 11)) as Arc<dyn LanguageModel>)
                })
                .collect();
            let llm = RoutedLlm::from_backends(table);
            let cfg = CatDbConfig {
                prompt: PromptOptions { beta: 2, ..Default::default() },
                llm_concurrency: concurrency,
                ..Default::default()
            };
            sources.push(generate_chain_source(&entry, &llm, &cfg).expect("chain succeeds"));
        }
        assert_eq!(sources[0], sources[1], "concurrency 1 vs 2");
        assert_eq!(sources[0], sources[2], "concurrency 1 vs 8");
    }

    #[test]
    fn different_routes_never_share_cache_entries() {
        use catdb_llm::{FaultSpec, RetryPolicy};
        use catdb_llm::{RouteSpec, RoutedLlm};
        let (entry, _, _) = dataset();
        let cache = Arc::new(CompletionCache::new(256));
        let cfg = CatDbConfig {
            prompt: PromptOptions { beta: 2, ..Default::default() },
            llm_cache: Some(cache.clone()),
            ..Default::default()
        };
        let run = |route: &str| {
            let spec = RouteSpec::parse(route).expect("valid spec");
            let llm = RoutedLlm::simulated(
                &ModelProfile::gpt_4o(),
                &spec,
                FaultSpec::none(),
                RetryPolicy::default(),
                cfg.seed,
            );
            let sink = Arc::new(catdb_trace::TraceSink::new());
            let guard = catdb_trace::install(sink.clone());
            let source = generate_chain_source(&entry, &llm, &cfg).expect("chain succeeds");
            drop(guard);
            (source, sink.snapshot())
        };
        let (_, cold) = run("generate=gpt-4o");
        assert_eq!(cold.cache_hit_count(), 0);
        // Same prompts, different routed models: the second route must
        // go upstream for its re-routed roles, not replay the first
        // route's completions.
        let (_, rerouted) = run("generate=gpt-4o,refine=llama,select=llama");
        assert!(rerouted.llm_call_count() > 0, "re-routed roles must miss the cache");
        // A repeat of either route is fully warm.
        let (_, warm) = run("generate=gpt-4o,refine=llama,select=llama");
        assert_eq!(warm.llm_call_count(), 0, "identical route replays from cache");
    }

    #[test]
    fn shared_cache_makes_second_run_free_and_identical() {
        let (entry, _, _) = dataset();
        let cache = Arc::new(CompletionCache::new(256));
        let cfg = CatDbConfig {
            prompt: PromptOptions { beta: 2, ..Default::default() },
            llm_cache: Some(cache.clone()),
            ..Default::default()
        };
        let run = |seed_llm: &SimLlm| {
            let sink = Arc::new(catdb_trace::TraceSink::new());
            let guard = catdb_trace::install(sink.clone());
            let source = generate_chain_source(&entry, seed_llm, &cfg).expect("chain succeeds");
            drop(guard);
            (source, sink.snapshot())
        };
        // One SimLlm across both runs: the second run must not consult it
        // at all (its per-prompt repeat counters would otherwise shift).
        let llm = SimLlm::new(ModelProfile::gemini_1_5_pro(), 11);
        let (cold, cold_trace) = run(&llm);
        let calls_after_cold = llm.call_count();
        let (warm, warm_trace) = run(&llm);
        assert_eq!(cold, warm, "warm cache must replay byte-identically");
        assert_eq!(llm.call_count(), calls_after_cold, "warm run is fully served from cache");
        assert_eq!(cold_trace.cache_hit_count(), 0);
        assert!(warm_trace.cache_hit_count() > 0, "warm run records cache.hit events");
        // Zero additional measured cost: hits emit no LlmCall.
        assert_eq!(warm_trace.llm_call_count(), 0);
        assert_eq!(warm_trace.total_llm_cost(), 0.0);
        assert!(warm_trace.counters["cache.hit"] > 0.0);
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn recurring_fix_prompts_short_circuit_through_the_cache() {
        let (entry, train, test) = dataset();
        // Fixes always fail to change anything meaningful at quality 0:
        // the same (source, error) pair recurs until attempts run out.
        let profile = ModelProfile {
            semantic_fault_rate: 1.0,
            syntax_fault_rate: 0.0,
            env_fault_rate: 0.0,
            fix_skill: 0.0,
            ..ModelProfile::llama3_1_70b()
        };
        let llm = SimLlm::new(profile, 23);
        let cfg = CatDbConfig { use_knowledge_base: false, ..Default::default() };
        let outcome = generate_pipeline(&entry, &train, &test, &llm, &cfg);
        let cached_fixes =
            outcome.traces.iter().filter(|t| t.fixed_by == FixedBy::CachedLlmFix).count();
        let llm_fixes =
            outcome.traces.iter().filter(|t| t.fixed_by == FixedBy::LlmResubmission).count();
        assert!(
            cached_fixes > 0,
            "identical (source, error) re-prompts must be served from cache; traces: {:?}",
            outcome.traces
        );
        assert!(llm_fixes > 0, "the first occurrence still goes upstream");
    }

    #[test]
    fn referenced_columns_extracts_known_names() {
        let (entry, _, _) = dataset();
        let cols = referenced_columns(&entry, "column 'age' not found, also 'bogus' and 'city'");
        assert_eq!(cols, vec!["age".to_string(), "city".to_string()]);
    }
}
