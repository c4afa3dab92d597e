//! One run path: the paper's `catdb_collect` → `LLM(model, cfg)` →
//! `catdb_pipgen` chain behind a single spec.
//!
//! [`RunSpec`] holds every knob a one-shot run takes, already parsed and
//! resolved. [`RunSpec::run`] assembles the transport, then composes the
//! two halves: [`RunSpec::collect`] profiles and refines the catalog,
//! and [`RunSpec::generate`] runs Algorithm 4 on a split table. `catdb
//! run` builds the spec from its flags and the serve daemon from a wire
//! request, so both front ends run exactly this code; the experiment
//! binaries call the halves directly, because they split the data once
//! and generate under several seeds. [`RunFlags`] parses the flags the
//! CLI and the experiment binaries share.

use crate::api::{catdb_collect, collect, CollectOptions, Collected, PipgenResult};
use crate::generate::{generate_pipeline, CatDbConfig, GenerationOutcome};
use crate::prompt::PromptOptions;
use catdb_catalog::{CatalogEntry, MultiTableDataset, RefinementReport};
use catdb_llm::{
    resolve_route, LanguageModel, ModelProfile, RouteSpec, Transport, DEFAULT_ROUTE_TARGET_ACCURACY,
};
use catdb_ml::TaskKind;
use catdb_profiler::ProfileMode;
use catdb_sched::{CompletionCache, LlmScheduler, DEFAULT_LLM_CONCURRENCY};
use catdb_table::{Table, TableError};
use std::fmt;
use std::sync::Arc;

/// Everything a one-shot run takes besides its data.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Default model, serving every role the route leaves out.
    pub model: ModelProfile,
    /// Resolved per-role routing; `None` sends every role to `model`.
    pub route: Option<RouteSpec>,
    pub seed: u64,
    /// Top-K column selection.
    pub alpha: Option<usize>,
    /// Chain chunks; 0 and 1 both mean a single prompt.
    pub beta: usize,
    /// Run LLM-assisted catalog refinement before generation.
    pub refine: bool,
    /// Concurrent in-flight LLM requests for fan-out stages.
    pub llm_concurrency: usize,
    pub transport: Transport,
    /// Profiling strategy (`--profile-mode`).
    pub profile: ProfileMode,
}

/// What a run produced.
pub struct RunOutcome {
    pub result: PipgenResult,
    /// The catalog refinement report, when refinement ran.
    pub refinement: Option<RefinementReport>,
    /// Canonical `role=model,...` rendering of the route, when routed.
    pub route: Option<String>,
}

/// A run that could not produce an outcome.
#[derive(Debug)]
pub enum RunError {
    Collect(TableError),
    Generate(TableError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Collect(e) => write!(f, "collection failed: {e}"),
            RunError::Generate(e) => write!(f, "generation failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl RunSpec {
    /// The simulated LLM stack for this spec: the transport over `model`,
    /// routed per role when `route` is set, seeded with `seed`.
    pub fn llm(&self) -> Box<dyn LanguageModel> {
        self.transport.build(&self.model, self.route.as_ref(), self.seed)
    }

    /// The generation config for this spec. β is normalised with
    /// `max(1)` here and nowhere else.
    pub fn config(&self, cache: Option<Arc<CompletionCache>>) -> CatDbConfig {
        CatDbConfig {
            prompt: PromptOptions {
                beta: self.beta.max(1),
                alpha: self.alpha,
                ..Default::default()
            },
            seed: self.seed,
            llm_concurrency: self.llm_concurrency,
            llm_cache: cache,
            ..Default::default()
        }
    }

    /// The collection half: profile `dataset` once in the spec's profile
    /// mode, then refine it through `llm` when `refine` is set.
    pub fn collect(
        &self,
        dataset: &MultiTableDataset,
        target: &str,
        task: TaskKind,
        llm: &dyn LanguageModel,
    ) -> Result<Collected, TableError> {
        collect(dataset, target, task, llm, &self.collect_options())
    }

    fn collect_options(&self) -> CollectOptions {
        let mut opts = CollectOptions { refine: self.refine, ..Default::default() };
        opts.profile.mode = self.profile;
        opts
    }

    /// The generation half: Algorithm 4 on an already split table. With
    /// `Some(cache)` generation shares that completion cache; with `None`
    /// it keeps a session-local one.
    pub fn generate(
        &self,
        entry: &CatalogEntry,
        train: &Table,
        test: &Table,
        llm: &dyn LanguageModel,
        cache: Option<Arc<CompletionCache>>,
    ) -> GenerationOutcome {
        generate_pipeline(entry, train, test, llm, &self.config(cache))
    }

    /// Collect `dataset`, split it 70/30 under `seed` and generate a
    /// pipeline for `target`.
    ///
    /// With `Some(cache)`, every LLM call (refinement included) goes
    /// through an [`LlmScheduler`] over that cache, and generation shares
    /// it, so warm entries replay unbilled. With `None`, collection talks
    /// to the bare transport and generation keeps a session-local cache.
    pub fn run(
        &self,
        dataset: &MultiTableDataset,
        target: &str,
        task: TaskKind,
        cache: Option<Arc<CompletionCache>>,
    ) -> Result<RunOutcome, RunError> {
        let transport = self.llm();
        // The scheduler keys cache entries on the routed model per prompt.
        let sched = cache.as_ref().map(|cache| {
            LlmScheduler::new(transport.as_ref(), cache.clone())
                .with_concurrency(self.llm_concurrency)
                .with_decode_tag(format!("seed={}", self.seed))
        });
        let llm: &dyn LanguageModel = match &sched {
            Some(sched) => sched,
            None => transport.as_ref(),
        };

        let (entry, prepared, refinement) =
            catdb_collect(dataset, target, task, llm, &self.collect_options())
                .map_err(RunError::Collect)?;
        let (train, test) =
            prepared.train_test_split(0.7, self.seed).map_err(RunError::Generate)?;
        let results = self.generate(&entry, &train, &test, llm, cache);
        let result = PipgenResult { code: results.source.clone(), results };
        let route = self.route.as_ref().map(|spec| spec.canonical(&self.model));
        Ok(RunOutcome { result, refinement, route })
    }
}

/// The flags every front end takes for a run: `--seed`, `--fault-rate`,
/// `--max-retries`, `--llm-timeout`, `--llm-concurrency`, `--route` and
/// `--route-target-accuracy`. Parsing is strict: a missing or malformed
/// value is an error that names the flag.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFlags {
    pub seed: u64,
    pub transport: Transport,
    /// Concurrent in-flight LLM requests for fan-out stages.
    pub llm_concurrency: usize,
    /// `--route` as given: `role=model[:N],...` or `auto`.
    pub route: Option<String>,
    /// End-to-end accuracy target for `--route auto`.
    pub route_target_accuracy: f64,
}

impl RunFlags {
    /// The defaults, with the front end's own default seed.
    pub fn new(seed: u64) -> RunFlags {
        RunFlags {
            seed,
            transport: Transport::default(),
            llm_concurrency: DEFAULT_LLM_CONCURRENCY,
            route: None,
            route_target_accuracy: DEFAULT_ROUTE_TARGET_ACCURACY,
        }
    }

    /// Parse `flag`, taking its value from `rest`, when it is one of
    /// these flags. `Ok(false)` leaves any other flag to the caller.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        rest: &mut std::slice::Iter<String>,
    ) -> Result<bool, String> {
        match flag {
            "--seed" => self.seed = value(rest, flag, str::parse)?,
            "--fault-rate" => self.transport.fault_rate = value(rest, flag, str::parse)?,
            "--max-retries" => self.transport.max_retries = value(rest, flag, str::parse)?,
            "--llm-timeout" => self.transport.llm_timeout = Some(value(rest, flag, str::parse)?),
            "--llm-concurrency" => self.llm_concurrency = value(rest, flag, str::parse)?,
            "--route" => self.route = Some(value(rest, flag, str::parse)?),
            "--route-target-accuracy" => {
                self.route_target_accuracy = value(rest, flag, str::parse)?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolve `--route`. `auto` runs the route optimizer, which records
    /// a `RouteDecision` event under the installed trace sink.
    pub fn resolve_route(&self) -> Result<Option<RouteSpec>, String> {
        self.route
            .as_deref()
            .map(|r| {
                resolve_route(r, self.route_target_accuracy)
                    .map_err(|e| format!("bad --route '{r}': {e}"))
            })
            .transpose()
    }
}

/// The token after `flag`, parsed by `parse`. A missing or unparseable
/// value is an error that names the flag.
pub fn value<T, E: fmt::Display>(
    rest: &mut std::slice::Iter<String>,
    flag: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let raw = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
    parse(raw).map_err(|e| format!("bad {flag} '{raw}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::{Column, Table};

    fn toy_dataset() -> MultiTableDataset {
        let n = 300;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<&str> = (0..n).map(|i| if i < n / 2 { "lo" } else { "hi" }).collect();
        let t =
            Table::from_columns(vec![("x", Column::from_f64(x)), ("y", Column::from_strings(y))])
                .unwrap();
        MultiTableDataset::single("toy", t)
    }

    fn spec() -> RunSpec {
        RunSpec {
            model: ModelProfile::gpt_4o(),
            route: None,
            seed: 5,
            alpha: None,
            beta: 1,
            refine: true,
            llm_concurrency: 2,
            transport: Transport::default(),
            profile: ProfileMode::default(),
        }
    }

    #[test]
    fn shared_cache_and_session_cache_runs_generate_the_same_pipeline() {
        let dataset = toy_dataset();
        let task = TaskKind::BinaryClassification;
        let bare = spec().run(&dataset, "y", task, None).unwrap();
        let cache = Arc::new(CompletionCache::new(4096));
        let cold = spec().run(&dataset, "y", task, Some(cache.clone())).unwrap();
        let warm = spec().run(&dataset, "y", task, Some(cache.clone())).unwrap();
        assert_eq!(bare.result.code, cold.result.code);
        assert_eq!(cold.result.code, warm.result.code);
        assert!(cache.stats().hits > 0, "the warm run never hit the shared cache");
        assert!(bare.refinement.is_some());
        assert_eq!(bare.route, None);
    }

    #[test]
    fn routed_runs_report_the_canonical_route() {
        let route = catdb_llm::resolve_route("refine=llama,fix=mini", 0.95).unwrap();
        let outcome = RunSpec { route: Some(route), ..spec() }
            .run(&toy_dataset(), "y", TaskKind::BinaryClassification, None)
            .unwrap();
        assert_eq!(
            outcome.route.as_deref(),
            Some("refine=llama3.1-70b,generate=gpt-4o,select=gpt-4o,fix=gpt-4o-mini")
        );
    }
}
