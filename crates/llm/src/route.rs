//! Per-role model routing: send each pipeline role to its own model.
//!
//! CatDB's prompt stream is not homogeneous — catalog refinement asks
//! short classification questions, chain-stage generation writes whole
//! pipeline programs, model selection picks a learner, and fix re-prompts
//! repair a failing program. The paper runs every role on one model per
//! experiment; SNIPPETS.md Snippet 3 and the prompt-generation literature
//! argue for a registry that assigns a cheap model to the mechanical
//! roles and a strong model where errors are expensive. [`RouteSpec`]
//! parses the `--route refine=llama,generate=gpt-4o,fix=gpt-4o-mini`
//! syntax, [`RoutedLlm`] dispatches each prompt by its `<TASK>` tag, and
//! [`RouteOptimizer`] enumerates assignments to find the cheapest one
//! meeting a target end-to-end accuracy, using the same Table-2 fault
//! frequencies that drive the simulator.
//!
//! Routing composes with everything below it unchanged: each role's
//! backend is a full [`ResilientClient`] (retry, breaker, degradation
//! ladder), and the scheduler keys its completion cache on
//! [`LanguageModel::model_for`], so identical prompts routed to
//! different models never share a cache entry while re-runs of the same
//! route stay warm.

use crate::client::{Completion, LanguageModel, LlmError};
use crate::fault::FaultSpec;
use crate::profile::ModelProfile;
use crate::prompt::{LlmTaskKind, Prompt};
use crate::resilient::{ResilientClient, RetryPolicy};
use catdb_trace::{Trace, TraceEvent};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// The four routable pipeline roles, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// Catalog refinement: feature-type inference and categorical-value
    /// deduplication prompts (Section 3.2).
    Refine,
    /// Pipeline generation: the single CatDB prompt or the chain's
    /// preprocessing / feature-engineering stage prompts (Algorithm 3).
    Generate,
    /// Model-selection prompts (the chain's final stage).
    Select,
    /// Error-fix re-prompts from the error-management loop (Algorithm 4).
    Fix,
}

impl Role {
    pub const ALL: [Role; 4] = [Role::Refine, Role::Generate, Role::Select, Role::Fix];

    /// The `--route` key for this role.
    pub fn name(self) -> &'static str {
        match self {
            Role::Refine => "refine",
            Role::Generate => "generate",
            Role::Select => "select",
            Role::Fix => "fix",
        }
    }

    /// Parse a `--route` key.
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "refine" => Some(Role::Refine),
            "generate" => Some(Role::Generate),
            "select" => Some(Role::Select),
            "fix" => Some(Role::Fix),
            _ => None,
        }
    }

    /// The role that owns a prompt task.
    pub fn of_task(task: LlmTaskKind) -> Role {
        match task {
            LlmTaskKind::FeatureTypeInference | LlmTaskKind::CategoricalRefinement => Role::Refine,
            LlmTaskKind::ModelSelection => Role::Select,
            LlmTaskKind::ErrorFix => Role::Fix,
            LlmTaskKind::PipelineGeneration
            | LlmTaskKind::Preprocessing
            | LlmTaskKind::FeatureEngineering
            | LlmTaskKind::Unknown => Role::Generate,
        }
    }

    /// Classify a prompt by scanning for its `<TASK>` tag. Prompts
    /// without a recognizable tag route as [`Role::Generate`] — the
    /// conservative default, since generation carries the strongest
    /// model in every sensible route.
    pub fn of_prompt(prompt: &Prompt) -> Role {
        for text in [&prompt.system, &prompt.user] {
            for line in text.lines() {
                let trimmed = line.trim();
                if let Some(rest) = trimmed.strip_prefix("<TASK>") {
                    if let Some(tag) = rest.strip_suffix("</TASK>") {
                        return Role::of_task(LlmTaskKind::parse(tag.trim()));
                    }
                }
            }
        }
        Role::Generate
    }
}

/// A structured `--route` parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The spec string was empty (or all-whitespace/commas).
    EmptySpec,
    /// An entry had no `=` separator.
    MissingSeparator { entry: String },
    /// The key before `=` is not one of `refine|generate|select|fix`.
    UnknownRole { role: String },
    /// The value after `=` is not a known model or alias.
    UnknownModel { model: String },
    /// The same role was assigned twice.
    DuplicateRole { role: String },
    /// A `:N` concurrency suffix was present but not a positive integer.
    InvalidLimit { entry: String },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::EmptySpec => {
                write!(f, "empty --route spec; expected role=model[,role=model...]")
            }
            RouteError::MissingSeparator { entry } => {
                write!(f, "route entry '{entry}' has no '='; expected role=model")
            }
            RouteError::UnknownRole { role } => {
                write!(f, "unknown route role '{role}'; roles are refine, generate, select, fix")
            }
            RouteError::UnknownModel { model } => write!(
                f,
                "unknown route model '{model}'; known models: gpt-4o, gemini-1.5-pro, \
                 llama3.1-70b, gpt-4o-mini (aliases: gemini, llama, mini)"
            ),
            RouteError::DuplicateRole { role } => {
                write!(f, "route role '{role}' assigned more than once")
            }
            RouteError::InvalidLimit { entry } => {
                write!(
                    f,
                    "route entry '{entry}' has a bad concurrency suffix; \
                     expected role=model:N with N a positive integer"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A parsed role → model assignment. Roles left out of the spec fall
/// back to the run's default model when the route is materialized.
/// Entries may carry a `:N` suffix capping that role's in-flight
/// completions; the cap is enforced *inside* the shared
/// `--llm-concurrency` fan-out, so a role waiting on its own limit
/// still occupies one of the scheduler's slots.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteSpec {
    assigned: Vec<(Role, ModelProfile)>,
    limits: Vec<(Role, usize)>,
}

impl RouteSpec {
    /// Parse `role=model[:N][,role=model[:N]...]`. Models accept the
    /// aliases of [`ModelProfile::resolve_alias`]; the optional `:N`
    /// suffix caps the role at `N` concurrent completions. Every
    /// failure is a structured [`RouteError`] naming the offending
    /// entry.
    pub fn parse(spec: &str) -> Result<RouteSpec, RouteError> {
        let entries: Vec<&str> = spec.split(',').map(str::trim).filter(|e| !e.is_empty()).collect();
        if entries.is_empty() {
            return Err(RouteError::EmptySpec);
        }
        let mut assigned: Vec<(Role, ModelProfile)> = Vec::new();
        let mut limits: Vec<(Role, usize)> = Vec::new();
        for entry in entries {
            let (role_s, value_s) = entry
                .split_once('=')
                .ok_or_else(|| RouteError::MissingSeparator { entry: entry.to_string() })?;
            let role = Role::parse(role_s.trim())
                .ok_or_else(|| RouteError::UnknownRole { role: role_s.trim().to_string() })?;
            // No known model name contains ':', so any colon starts a
            // concurrency suffix; a malformed one is an error, not part
            // of the model name.
            let (model_s, limit) =
                match value_s.split_once(':') {
                    Some((model_s, limit_s)) => {
                        let limit =
                            limit_s.trim().parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(
                                || RouteError::InvalidLimit { entry: entry.to_string() },
                            )?;
                        (model_s, Some(limit))
                    }
                    None => (value_s, None),
                };
            let model = ModelProfile::by_name(model_s.trim())
                .ok_or_else(|| RouteError::UnknownModel { model: model_s.trim().to_string() })?;
            if assigned.iter().any(|(r, _)| *r == role) {
                return Err(RouteError::DuplicateRole { role: role.name().to_string() });
            }
            assigned.push((role, model));
            if let Some(limit) = limit {
                limits.push((role, limit));
            }
        }
        Ok(RouteSpec { assigned, limits })
    }

    /// A spec assigning `model` to every role.
    pub fn uniform(model: ModelProfile) -> RouteSpec {
        RouteSpec {
            assigned: Role::ALL.iter().map(|r| (*r, model.clone())).collect(),
            limits: Vec::new(),
        }
    }

    /// The model assigned to `role`, if the spec names one.
    pub fn model(&self, role: Role) -> Option<&ModelProfile> {
        self.assigned.iter().find(|(r, _)| *r == role).map(|(_, m)| m)
    }

    /// The in-flight completion cap for `role`, if the spec set one.
    pub fn limit(&self, role: Role) -> Option<usize> {
        self.limits.iter().find(|(r, _)| *r == role).map(|(_, n)| *n)
    }

    /// Full per-role table with `default` filling unassigned roles,
    /// in [`Role::ALL`] order.
    pub fn resolve(&self, default: &ModelProfile) -> Vec<(Role, ModelProfile)> {
        Role::ALL
            .iter()
            .map(|r| (*r, self.model(*r).cloned().unwrap_or_else(|| default.clone())))
            .collect()
    }

    /// Canonical `role=model[:N],...` string in [`Role::ALL`] order,
    /// with unassigned roles resolved against `default`. Two specs
    /// that route (and cap) identically render identically.
    pub fn canonical(&self, default: &ModelProfile) -> String {
        self.resolve(default)
            .iter()
            .map(|(r, m)| match self.limit(*r) {
                Some(n) => format!("{}={}:{n}", r.name(), m.name),
                None => format!("{}={}", r.name(), m.name),
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A plain counting semaphore (`Mutex` + `Condvar`), used to cap a
/// role's in-flight completions without pulling in an async runtime.
#[derive(Debug)]
struct RoleGate {
    permits: Mutex<usize>,
    available: Condvar,
}

impl RoleGate {
    fn new(permits: usize) -> RoleGate {
        RoleGate { permits: Mutex::new(permits), available: Condvar::new() }
    }

    fn acquire(&self) -> RoleGateGuard<'_> {
        let mut permits = self.permits.lock().expect("role gate poisoned");
        while *permits == 0 {
            permits = self.available.wait(permits).expect("role gate poisoned");
        }
        *permits -= 1;
        RoleGateGuard { gate: self }
    }
}

struct RoleGateGuard<'a> {
    gate: &'a RoleGate,
}

impl Drop for RoleGateGuard<'_> {
    fn drop(&mut self) {
        let mut permits = self.gate.permits.lock().expect("role gate poisoned");
        *permits += 1;
        self.gate.available.notify_one();
    }
}

/// A [`LanguageModel`] that dispatches each prompt to the backend its
/// role is routed to. Roles sharing a model share one backend (and
/// therefore one circuit breaker and one seeded fault stream), so a
/// route is exactly as deterministic as its distinct backends — backend
/// responses depend only on (seed, prompt), never on arrival order.
pub struct RoutedLlm {
    /// One backend per distinct routed model, creation order.
    backends: Vec<Arc<dyn LanguageModel>>,
    /// `Role::ALL`-indexed backend index and routed model name.
    by_role: [usize; 4],
    names: [String; 4],
    /// `Role::ALL`-indexed in-flight caps; `None` = unbounded. Enforced
    /// inside [`LanguageModel::complete`], so a capped role's waiters
    /// still hold their slot of the shared `--llm-concurrency` bound.
    limits: [Option<Arc<RoleGate>>; 4],
}

impl RoutedLlm {
    /// Build from explicit per-role backends, deduplicated by
    /// `model_name()`. `table` must cover all four roles (use
    /// [`RouteSpec::resolve`]).
    pub fn from_backends(table: Vec<(Role, Arc<dyn LanguageModel>)>) -> RoutedLlm {
        let mut backends: Vec<Arc<dyn LanguageModel>> = Vec::new();
        let mut by_role = [0usize; 4];
        let mut names: [String; 4] = Default::default();
        for (role, backend) in table {
            let name = backend.model_name().to_string();
            let idx = match backends.iter().position(|b| b.model_name() == name) {
                Some(i) => i,
                None => {
                    backends.push(backend);
                    backends.len() - 1
                }
            };
            let slot = Role::ALL.iter().position(|r| *r == role).expect("role in ALL");
            by_role[slot] = idx;
            names[slot] = name;
        }
        assert!(names.iter().all(|n| !n.is_empty()), "route table must cover all roles");
        RoutedLlm { backends, by_role, names, limits: [None, None, None, None] }
    }

    /// Apply the spec's per-role `:N` caps. Each capped role gets its
    /// own gate — two roles routed to the same backend are capped
    /// independently.
    pub fn with_role_limits(mut self, spec: &RouteSpec) -> RoutedLlm {
        for (slot, role) in Role::ALL.iter().enumerate() {
            self.limits[slot] = spec.limit(*role).map(|n| Arc::new(RoleGate::new(n)));
        }
        self
    }

    /// The standard simulated stack for a route: one
    /// [`ResilientClient::simulated`] per distinct routed model, all
    /// seeded with the same base `seed` and fault surface. Shared
    /// seeding keeps routed runs byte-deterministic at any concurrency:
    /// a backend's response depends only on (seed, prompt), so the set
    /// of distinct models — not their call interleaving — fixes the
    /// output.
    pub fn simulated(
        default: &ModelProfile,
        spec: &RouteSpec,
        faults: FaultSpec,
        policy: RetryPolicy,
        seed: u64,
    ) -> RoutedLlm {
        let mut built: Vec<(String, Arc<dyn LanguageModel>)> = Vec::new();
        let mut table: Vec<(Role, Arc<dyn LanguageModel>)> = Vec::new();
        for (role, profile) in spec.resolve(default) {
            let backend = match built.iter().find(|(n, _)| *n == profile.name) {
                Some((_, b)) => b.clone(),
                None => {
                    let b: Arc<dyn LanguageModel> = Arc::new(ResilientClient::simulated(
                        profile.clone(),
                        faults,
                        policy.clone(),
                        seed,
                    ));
                    built.push((profile.name.clone(), b.clone()));
                    b
                }
            };
            table.push((role, backend));
        }
        RoutedLlm::from_backends(table).with_role_limits(spec)
    }

    fn slot(&self, prompt: &Prompt) -> usize {
        let role = Role::of_prompt(prompt);
        Role::ALL.iter().position(|r| *r == role).expect("role in ALL")
    }
}

impl LanguageModel for RoutedLlm {
    /// The generate-role model: the identity shown in error traces and
    /// degradation events, since generation is the role they concern.
    fn model_name(&self) -> &str {
        let generate = Role::ALL.iter().position(|r| *r == Role::Generate).expect("in ALL");
        &self.names[generate]
    }

    fn context_window(&self) -> usize {
        let generate = Role::ALL.iter().position(|r| *r == Role::Generate).expect("in ALL");
        self.backends[self.by_role[generate]].context_window()
    }

    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        let slot = self.slot(prompt);
        let _permit = self.limits[slot].as_ref().map(|gate| gate.acquire());
        self.backends[self.by_role[slot]].complete(prompt)
    }

    fn model_for(&self, prompt: &Prompt) -> &str {
        &self.names[self.slot(prompt)]
    }
}

/// Default `--route-target-accuracy` for `--route auto`.
pub const DEFAULT_ROUTE_TARGET_ACCURACY: f64 = 0.95;

/// Default per-role `(input, output)` token volumes used when the
/// optimizer has no observed trace — rough fig12-workload shapes.
const DEFAULT_VOLUME: [(f64, f64); 4] =
    [(2_400.0, 500.0), (6_000.0, 1_600.0), (1_200.0, 300.0), (3_000.0, 900.0)];

/// Error-fix rounds Algorithm 4 grants before falling back.
const FIX_ROUNDS: i32 = 3;

/// One enumerated route with its predicted quality and price.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteCandidate {
    pub route: String,
    pub spec: RouteSpec,
    pub expected_accuracy: f64,
    pub expected_cost_usd: f64,
}

/// Enumerates every assignment of known models to roles and picks the
/// cheapest one whose predicted end-to-end accuracy meets the target.
///
/// The accuracy model composes the same per-model frequencies the
/// simulator draws from: a role's first-try error rate comes from its
/// routed profile (instruction following for refinement, the Table-2
/// fault mix for generation, selection quality for model choice), and
/// the fix role's `fix_skill` discounts every other role's error by the
/// chance [`FIX_ROUNDS`] repair rounds all fail. The cost model prices
/// per-role token volumes — observed ones when a trace is supplied,
/// fig12-shaped defaults otherwise — at each routed model's API rates,
/// with fix volume scaled by the generation error it exists to repair.
pub struct RouteOptimizer {
    pub target_accuracy: f64,
    candidates: Vec<ModelProfile>,
    volumes: [(f64, f64); 4],
}

impl RouteOptimizer {
    pub fn new(target_accuracy: f64) -> RouteOptimizer {
        RouteOptimizer {
            target_accuracy,
            candidates: ModelProfile::known_models(),
            volumes: DEFAULT_VOLUME,
        }
    }

    /// Scale the default per-role volumes by a trace's observed
    /// `llm_tokens_by_task()`, so the optimizer prices the workload the
    /// run actually sends. Roles absent from the trace keep defaults.
    pub fn with_observed(mut self, trace: &Trace) -> RouteOptimizer {
        let mut observed = [(0.0f64, 0.0f64); 4];
        for (task, (input, output)) in trace.llm_tokens_by_task() {
            let role = Role::of_task(LlmTaskKind::parse(&task));
            let slot = Role::ALL.iter().position(|r| *r == role).expect("in ALL");
            observed[slot].0 += input as f64;
            observed[slot].1 += output as f64;
        }
        for (slot, (input, output)) in observed.iter().enumerate() {
            if *input > 0.0 || *output > 0.0 {
                self.volumes[slot] = (*input, *output);
            }
        }
        self
    }

    /// A role's first-try failure probability under `profile`.
    fn role_error(role: Role, profile: &ModelProfile) -> f64 {
        match role {
            Role::Refine => 1.0 - profile.instruction_following,
            Role::Generate => {
                1.0 - (1.0 - profile.semantic_fault_rate)
                    * (1.0 - profile.syntax_fault_rate)
                    * (1.0 - profile.env_fault_rate)
            }
            Role::Select => 1.0 - profile.quality,
            // The fix role has no first-try slot of its own; it enters
            // the model as every other role's recovery channel.
            Role::Fix => 0.0,
        }
    }

    /// Predicted end-to-end success probability of a full route table.
    pub fn predicted_accuracy(table: &[(Role, ModelProfile)]) -> f64 {
        let fix_rel =
            table.iter().find(|(r, _)| *r == Role::Fix).map(|(_, m)| m.fix_skill).unwrap_or(0.0);
        let unrecovered = (1.0 - fix_rel).powi(FIX_ROUNDS);
        table
            .iter()
            .filter(|(r, _)| *r != Role::Fix)
            .map(|(r, m)| 1.0 - Self::role_error(*r, m) * unrecovered)
            .product()
    }

    /// Predicted billed cost of a route table at the given volumes.
    fn predicted_cost(&self, table: &[(Role, ModelProfile)]) -> f64 {
        let gen_error = table
            .iter()
            .find(|(r, _)| *r == Role::Generate)
            .map(|(_, m)| Self::role_error(Role::Generate, m))
            .unwrap_or(0.0);
        table
            .iter()
            .map(|(role, m)| {
                let slot = Role::ALL.iter().position(|r| r == role).expect("in ALL");
                let (input, output) = self.volumes[slot];
                // Fix prompts only exist in proportion to generation
                // failures; an error-free generator bills no fix tokens.
                let weight = if *role == Role::Fix { gen_error * FIX_ROUNDS as f64 } else { 1.0 };
                m.cost_usd((input * weight) as usize, (output * weight) as usize)
            })
            .sum()
    }

    fn candidate_for(&self, table: Vec<(Role, ModelProfile)>) -> RouteCandidate {
        let spec = RouteSpec { assigned: table.clone(), limits: Vec::new() };
        // Every role is explicitly assigned, so the default is unused;
        // gpt-4o is passed only to satisfy the signature.
        let route = spec.canonical(&ModelProfile::gpt_4o());
        RouteCandidate {
            route,
            spec,
            expected_accuracy: Self::predicted_accuracy(&table),
            expected_cost_usd: self.predicted_cost(&table),
        }
    }

    /// Enumerate all `models^roles` assignments, keep those meeting the
    /// target, and return the cheapest (ties broken by canonical route
    /// string, so the choice is deterministic). The all-gpt-4o route is
    /// the baseline. Emits a [`TraceEvent::RouteDecision`] with the
    /// feasible shortlist. Returns `None` when no assignment reaches
    /// the target.
    pub fn optimize(&self) -> Option<RouteCandidate> {
        let n = self.candidates.len();
        let mut feasible: Vec<RouteCandidate> = Vec::new();
        let mut considered = 0usize;
        // Mixed-radix counter over candidate indices — deterministic
        // enumeration order, no recursion.
        let mut idx = [0usize; 4];
        loop {
            let table: Vec<(Role, ModelProfile)> = Role::ALL
                .iter()
                .enumerate()
                .map(|(slot, role)| (*role, self.candidates[idx[slot]].clone()))
                .collect();
            considered += 1;
            let cand = self.candidate_for(table);
            if cand.expected_accuracy >= self.target_accuracy {
                feasible.push(cand);
            }
            let mut slot = 0;
            loop {
                idx[slot] += 1;
                if idx[slot] < n {
                    break;
                }
                idx[slot] = 0;
                slot += 1;
                if slot == 4 {
                    break;
                }
            }
            if slot == 4 {
                break;
            }
        }
        feasible.sort_by(|a, b| {
            a.expected_cost_usd
                .partial_cmp(&b.expected_cost_usd)
                .expect("finite costs")
                .then_with(|| a.route.cmp(&b.route))
        });
        let baseline =
            self.candidate_for(Role::ALL.iter().map(|r| (*r, ModelProfile::gpt_4o())).collect());
        let chosen = feasible.first().cloned();
        if let Some(chosen) = &chosen {
            catdb_trace::emit(TraceEvent::RouteDecision {
                target_accuracy: self.target_accuracy,
                considered,
                candidates: feasible
                    .iter()
                    .take(5)
                    .map(|c| (c.route.clone(), c.expected_accuracy, c.expected_cost_usd))
                    .collect(),
                route: chosen.route.clone(),
                expected_accuracy: chosen.expected_accuracy,
                expected_cost_usd: chosen.expected_cost_usd,
                baseline_cost_usd: baseline.expected_cost_usd,
            });
        }
        chosen
    }
}

/// Resolve a `--route` value: an explicit spec parses directly, the
/// literal `auto` runs the optimizer at `target_accuracy`. When no
/// assignment reaches the target, `auto` falls back to the uniform
/// strong route (all gpt-4o) — the best-accuracy assignment available —
/// rather than failing the run.
pub fn resolve_route(spec: &str, target_accuracy: f64) -> Result<RouteSpec, RouteError> {
    if spec.trim() == "auto" {
        return Ok(RouteOptimizer::new(target_accuracy)
            .optimize()
            .map(|c| c.spec)
            .unwrap_or_else(|| RouteSpec::uniform(ModelProfile::gpt_4o())));
    }
    RouteSpec::parse(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimLlm;

    fn tagged(task: LlmTaskKind) -> Prompt {
        Prompt::new("system", format!("<TASK>{}</TASK>\nbody", task.tag()))
    }

    #[test]
    fn roles_classify_prompts_by_task_tag() {
        assert_eq!(Role::of_prompt(&tagged(LlmTaskKind::FeatureTypeInference)), Role::Refine);
        assert_eq!(Role::of_prompt(&tagged(LlmTaskKind::CategoricalRefinement)), Role::Refine);
        assert_eq!(Role::of_prompt(&tagged(LlmTaskKind::PipelineGeneration)), Role::Generate);
        assert_eq!(Role::of_prompt(&tagged(LlmTaskKind::Preprocessing)), Role::Generate);
        assert_eq!(Role::of_prompt(&tagged(LlmTaskKind::FeatureEngineering)), Role::Generate);
        assert_eq!(Role::of_prompt(&tagged(LlmTaskKind::ModelSelection)), Role::Select);
        assert_eq!(Role::of_prompt(&tagged(LlmTaskKind::ErrorFix)), Role::Fix);
        assert_eq!(Role::of_prompt(&Prompt::new("no", "tags here")), Role::Generate);
    }

    #[test]
    fn parse_accepts_aliases_and_partial_specs() {
        let spec = RouteSpec::parse("refine=llama,generate=gpt-4o,fix=mini").unwrap();
        assert_eq!(spec.model(Role::Refine).unwrap().name, "llama3.1-70b");
        assert_eq!(spec.model(Role::Generate).unwrap().name, "gpt-4o");
        assert_eq!(spec.model(Role::Fix).unwrap().name, "gpt-4o-mini");
        assert!(spec.model(Role::Select).is_none());
        assert!(Role::ALL.iter().all(|r| spec.limit(*r).is_none()));
        let table = spec.resolve(&ModelProfile::gemini_1_5_pro());
        assert_eq!(table[2].1.name, "gemini-1.5-pro");
        assert_eq!(
            spec.canonical(&ModelProfile::gemini_1_5_pro()),
            "refine=llama3.1-70b,generate=gpt-4o,select=gemini-1.5-pro,fix=gpt-4o-mini"
        );
    }

    #[test]
    fn parse_accepts_per_role_concurrency_suffixes() {
        let spec = RouteSpec::parse("refine=llama:2,generate=gpt-4o,fix=mini:1").unwrap();
        assert_eq!(spec.model(Role::Refine).unwrap().name, "llama3.1-70b");
        assert_eq!(spec.limit(Role::Refine), Some(2));
        assert_eq!(spec.limit(Role::Generate), None);
        assert_eq!(spec.limit(Role::Fix), Some(1));
        assert_eq!(
            spec.canonical(&ModelProfile::gpt_4o()),
            "refine=llama3.1-70b:2,generate=gpt-4o,select=gpt-4o,fix=gpt-4o-mini:1"
        );
    }

    #[test]
    fn parse_rejects_malformed_specs_with_structured_errors() {
        assert_eq!(RouteSpec::parse(""), Err(RouteError::EmptySpec));
        assert_eq!(RouteSpec::parse(" , ,"), Err(RouteError::EmptySpec));
        assert_eq!(
            RouteSpec::parse("refine"),
            Err(RouteError::MissingSeparator { entry: "refine".into() })
        );
        assert_eq!(
            RouteSpec::parse("profile=gpt-4o"),
            Err(RouteError::UnknownRole { role: "profile".into() })
        );
        assert_eq!(
            RouteSpec::parse("refine=claude"),
            Err(RouteError::UnknownModel { model: "claude".into() })
        );
        assert_eq!(
            RouteSpec::parse("refine=llama,refine=gpt-4o"),
            Err(RouteError::DuplicateRole { role: "refine".into() })
        );
        assert_eq!(
            RouteSpec::parse("refine=llama:0"),
            Err(RouteError::InvalidLimit { entry: "refine=llama:0".into() })
        );
        assert_eq!(
            RouteSpec::parse("refine=llama:two"),
            Err(RouteError::InvalidLimit { entry: "refine=llama:two".into() })
        );
        assert_eq!(
            RouteSpec::parse("refine=llama:"),
            Err(RouteError::InvalidLimit { entry: "refine=llama:".into() })
        );
    }

    #[test]
    fn routed_llm_dispatches_by_role_and_reports_routed_model() {
        let spec = RouteSpec::parse("refine=llama,generate=gpt-4o").unwrap();
        let table: Vec<(Role, Arc<dyn LanguageModel>)> = spec
            .resolve(&ModelProfile::gpt_4o())
            .into_iter()
            .map(|(role, profile)| {
                (role, Arc::new(SimLlm::new(profile, 7)) as Arc<dyn LanguageModel>)
            })
            .collect();
        let routed = RoutedLlm::from_backends(table);
        // gpt-4o serves generate, select, fix — three roles, one backend.
        assert_eq!(routed.backends.len(), 2);
        assert_eq!(routed.model_name(), "gpt-4o");
        assert_eq!(routed.model_for(&tagged(LlmTaskKind::FeatureTypeInference)), "llama3.1-70b");
        assert_eq!(routed.model_for(&tagged(LlmTaskKind::PipelineGeneration)), "gpt-4o");
        assert_eq!(routed.model_for(&tagged(LlmTaskKind::ErrorFix)), "gpt-4o");
        assert!(routed.complete(&tagged(LlmTaskKind::PipelineGeneration)).is_ok());
    }

    #[test]
    fn routed_completion_matches_direct_backend_call() {
        // The router must be a pure dispatcher: a routed completion is
        // byte-identical to calling the role's backend directly.
        let spec = RouteSpec::parse("refine=llama").unwrap();
        let routed = RoutedLlm::simulated(
            &ModelProfile::gpt_4o(),
            &spec,
            FaultSpec::none(),
            RetryPolicy::default(),
            42,
        );
        let direct = ResilientClient::simulated(
            ModelProfile::llama3_1_70b(),
            FaultSpec::none(),
            RetryPolicy::default(),
            42,
        );
        let prompt = tagged(LlmTaskKind::FeatureTypeInference);
        assert_eq!(routed.complete(&prompt).unwrap().text, direct.complete(&prompt).unwrap().text);
    }

    /// A backend that records how many completions are in flight at
    /// once, so a test can prove the role gate actually bounds them.
    struct InFlightProbe {
        current: std::sync::atomic::AtomicUsize,
        peak: std::sync::atomic::AtomicUsize,
    }

    impl InFlightProbe {
        fn new() -> InFlightProbe {
            InFlightProbe {
                current: std::sync::atomic::AtomicUsize::new(0),
                peak: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl LanguageModel for InFlightProbe {
        fn model_name(&self) -> &str {
            "probe"
        }

        fn context_window(&self) -> usize {
            128_000
        }

        fn complete(&self, _prompt: &Prompt) -> Result<Completion, LlmError> {
            use std::sync::atomic::Ordering;
            let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            self.current.fetch_sub(1, Ordering::SeqCst);
            Ok(Completion {
                text: "ok".into(),
                usage: crate::tokens::TokenUsage::new(1, 1),
                latency_seconds: 0.0,
            })
        }
    }

    #[test]
    fn role_limits_bound_in_flight_completions() {
        let spec = RouteSpec::parse("refine=llama:2").unwrap();
        let probe = Arc::new(InFlightProbe::new());
        let table: Vec<(Role, Arc<dyn LanguageModel>)> =
            Role::ALL.iter().map(|r| (*r, probe.clone() as Arc<dyn LanguageModel>)).collect();
        let routed = Arc::new(RoutedLlm::from_backends(table).with_role_limits(&spec));
        let prompt = tagged(LlmTaskKind::FeatureTypeInference);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let routed = routed.clone();
                let prompt = prompt.clone();
                scope.spawn(move || routed.complete(&prompt).unwrap());
            }
        });
        let peak = probe.peak.load(std::sync::atomic::Ordering::SeqCst);
        assert!(peak <= 2, "refine gate of 2 let {peak} completions run at once");
        // Uncapped roles on the same route are not throttled: the
        // generate role has no gate, so 8 threads can overlap freely.
        probe.peak.store(0, std::sync::atomic::Ordering::SeqCst);
        let open = tagged(LlmTaskKind::PipelineGeneration);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let routed = routed.clone();
                let open = open.clone();
                scope.spawn(move || routed.complete(&open).unwrap());
            }
        });
        assert!(probe.peak.load(std::sync::atomic::Ordering::SeqCst) >= 2);
    }

    #[test]
    fn optimizer_meets_target_with_a_cheaper_route_than_all_strong() {
        let opt = RouteOptimizer::new(0.95);
        let chosen = opt.optimize().expect("0.95 is feasible");
        assert!(chosen.expected_accuracy >= 0.95);
        let baseline = Role::ALL.iter().map(|r| (*r, ModelProfile::gpt_4o())).collect::<Vec<_>>();
        let baseline_cost = opt.predicted_cost(&baseline);
        assert!(
            chosen.expected_cost_usd < baseline_cost,
            "chosen {} at {} not under baseline {}",
            chosen.route,
            chosen.expected_cost_usd,
            baseline_cost
        );
        // A cheap route only clears the target because its fixer
        // recovers the extra first-try failures: llama's fix skill is
        // not enough, so the fixer must be a stronger tier.
        assert_ne!(chosen.spec.model(Role::Fix).unwrap().name, "llama3.1-70b");
    }

    #[test]
    fn a_tight_target_forces_the_strong_fixer() {
        // At 0.999 only gpt-4o's fix skill leaves little enough
        // unrecovered error; the other roles can still go cheap, so the
        // chosen route beats the uniform-strong baseline on price.
        let opt = RouteOptimizer::new(0.999);
        let chosen = opt.optimize().expect("0.999 is feasible");
        assert_eq!(chosen.spec.model(Role::Fix).unwrap().name, "gpt-4o");
        assert!(chosen.spec.model(Role::Refine).unwrap().name != "gpt-4o");
        let baseline = Role::ALL.iter().map(|r| (*r, ModelProfile::gpt_4o())).collect::<Vec<_>>();
        assert!(chosen.expected_cost_usd < opt.predicted_cost(&baseline));
    }

    #[test]
    fn optimizer_emits_route_decision_event() {
        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        let _guard = catdb_trace::install(sink.clone());
        RouteOptimizer::new(0.95).optimize().unwrap();
        let t = sink.snapshot();
        let decisions: Vec<_> =
            t.events.iter().filter(|r| r.event.kind() == "route_decision").collect();
        assert_eq!(decisions.len(), 1);
        if let TraceEvent::RouteDecision {
            considered,
            candidates,
            expected_cost_usd,
            baseline_cost_usd,
            ..
        } = &decisions[0].event
        {
            assert_eq!(*considered, 256); // 4 known models ^ 4 roles
            assert!(!candidates.is_empty());
            assert!(expected_cost_usd < baseline_cost_usd);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn an_impossible_target_falls_back_to_uniform_strong() {
        let spec = resolve_route("auto", 1.1).unwrap();
        assert_eq!(
            spec.canonical(&ModelProfile::gpt_4o()),
            "refine=gpt-4o,generate=gpt-4o,select=gpt-4o,fix=gpt-4o"
        );
    }

    #[test]
    fn observed_volumes_rescale_costs() {
        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        sink.emit(TraceEvent::PromptBuilt { task: "feature_type_inference".into(), tokens: 10 });
        sink.emit(TraceEvent::LlmCall {
            model: "gpt-4o".into(),
            prompt_tokens: 50_000,
            completion_tokens: 9_000,
            cost: 0.2,
        });
        let t = sink.snapshot();
        let base = RouteOptimizer::new(0.95);
        let scaled = RouteOptimizer::new(0.95).with_observed(&t);
        let table: Vec<(Role, ModelProfile)> =
            Role::ALL.iter().map(|r| (*r, ModelProfile::gpt_4o())).collect();
        // Refinement dominated the observed run, so its priced volume
        // (and with it the total) must grow past the default shape.
        assert!(scaled.predicted_cost(&table) > base.predicted_cost(&table));
    }
}
