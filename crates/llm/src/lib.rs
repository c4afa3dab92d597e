//! # catdb-llm — LLM abstraction and deterministic simulator
//!
//! CatDB is LLM-agnostic: it talks to a backend through the
//! [`LanguageModel`] trait. The original system uses GPT-4o, Gemini-1.5-pro
//! and Llama3.1-70b over commercial APIs; this reproduction ships
//! [`SimLlm`], a deterministic, seeded simulator whose behaviour is
//! parameterized by a per-model [`ModelProfile`] (context window, attention
//! budget, instruction following, fault rates calibrated to the paper's
//! Table 2 error-trace mix, fix skill, verbosity, latency).
//!
//! The simulator understands the structured prompt grammar of
//! [`prompt::PromptSpec`] and answers four task families: pipeline
//! generation (single prompt or chain stages), error fixing, feature-type
//! inference, and categorical-value refinement. Responses are *text* —
//! pipeline-DSL programs that `catdb-pipeline` parses, with faults injected
//! at the rates the profile specifies, so the CatDB error-management loop
//! sees exactly the failure surface the paper describes.
//!
//! The transport itself is made failure-aware by two composable layers:
//! [`FaultInjectingLlm`] injects seed-deterministic transport faults
//! (timeouts, transient 5xx, rate limits, truncated/garbled payloads)
//! around any backend, and [`ResilientClient`] answers them with per-call
//! deadlines, bounded exponential-backoff retry (simulated clock, no
//! wall time), a per-model circuit breaker, and degradation down a
//! ladder of cheaper [`ModelProfile`]s — every decision emitted as a
//! `catdb-trace` event so retries land in cost accounting.

mod client;
mod fault;
mod profile;
mod prompt;
mod resilient;
mod route;
mod sim;
mod tokens;
mod transport;

pub use client::{Completion, LanguageModel, LlmError};
pub use fault::{FaultInjectingLlm, FaultSpec};
pub use profile::ModelProfile;
pub use prompt::{
    parse_attrs as prompt_attrs, ColumnInfo, DatasetInfo, LlmTaskKind, Prompt, PromptSpec, RuleInfo,
};
pub use resilient::{ResilientClient, RetryPolicy, Rung, SimClock};
pub use route::{
    resolve_route, Role, RouteCandidate, RouteError, RouteOptimizer, RouteSpec, RoutedLlm,
    DEFAULT_ROUTE_TARGET_ACCURACY,
};
pub use sim::codegen::GenStage;
pub use sim::dedup::{parse_response as parse_refinement_response, refine_values};
pub use sim::fixer::clean_syntax as clean_pipeline_syntax;
pub use sim::typeinfer::{infer_feature_type, parse_response as parse_typeinfer_response};
pub use sim::SimLlm;
pub use tokens::{estimate_tokens, CostLedger, TokenUsage};
pub use transport::Transport;
