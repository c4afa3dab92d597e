//! One run path: the paper's `catdb_collect` → `LLM(model, cfg)` →
//! `catdb_pipgen` chain behind a single spec.
//!
//! [`RunSpec`] holds every knob a one-shot run takes, already parsed and
//! resolved; [`RunSpec::run`] assembles the transport, collects the
//! catalog and generates the pipeline. `catdb run` builds the spec from
//! its flags, and the serve daemon builds it from a wire request, so
//! both front ends run exactly this code.

use crate::api::{catdb_collect, catdb_pipgen, CollectOptions, PipgenResult};
use crate::generate::CatDbConfig;
use crate::prompt::PromptOptions;
use catdb_catalog::{MultiTableDataset, RefinementReport};
use catdb_llm::{LanguageModel, ModelProfile, RouteSpec, Transport};
use catdb_ml::{SplitMode, TaskKind};
use catdb_profiler::ProfileMode;
use catdb_sched::{CompletionCache, LlmScheduler};
use catdb_table::TableError;
use std::fmt;
use std::sync::Arc;

/// The execution strategies of a run: how columns are profiled and how
/// trees search splits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Engine {
    /// Tree split search (`--split-mode`).
    pub split: SplitMode,
    /// Profiling strategy (`--profile-mode`).
    pub profile: ProfileMode,
}

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
    pub engine: Engine,
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
    /// Collect `dataset` and generate a pipeline for `target`.
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
        let transport = self.transport.build(&self.model, self.route.as_ref(), self.seed);
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

        let mut collect = CollectOptions { refine: self.refine, ..Default::default() };
        collect.profile.mode = self.engine.profile;
        let (entry, prepared, refinement) =
            catdb_collect(dataset, target, task, llm, &collect).map_err(RunError::Collect)?;

        let cfg = CatDbConfig {
            prompt: PromptOptions {
                beta: self.beta.max(1),
                alpha: self.alpha,
                ..Default::default()
            },
            seed: self.seed,
            llm_concurrency: self.llm_concurrency,
            llm_cache: cache,
            split_mode: self.engine.split,
            ..Default::default()
        };
        let result = catdb_pipgen(&entry, &prepared, llm, &cfg).map_err(RunError::Generate)?;
        let route = self.route.as_ref().map(|spec| spec.canonical(&self.model));
        Ok(RunOutcome { result, refinement, route })
    }
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
            engine: Engine::default(),
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
