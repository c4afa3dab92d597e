//! The `LanguageModel` abstraction: CatDB is LLM-agnostic (Section 2) and
//! talks to any backend through this trait. The repo ships a deterministic
//! simulator ([`crate::SimLlm`]); a production deployment would implement
//! the same trait over a real API client.

use crate::prompt::Prompt;
use crate::tokens::TokenUsage;
use std::fmt;

/// Errors an LLM backend can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmError {
    /// The prompt does not fit the model's context window.
    ContextLengthExceeded { prompt_tokens: usize, window: usize },
    /// Transient service failure (retriable).
    ServiceUnavailable(String),
    /// The call exceeded its deadline. `seconds` is how long the request
    /// ran (simulated — latencies in this workspace are returned, never
    /// slept) before being abandoned.
    Timeout { seconds: f64 },
    /// The service shed load (HTTP 429). `retry_after_seconds` is the
    /// back-pressure hint a production API would return.
    RateLimited { retry_after_seconds: f64 },
}

impl LlmError {
    /// Short machine-readable code for trace events.
    pub fn code(&self) -> &'static str {
        match self {
            LlmError::ContextLengthExceeded { .. } => "context_length_exceeded",
            LlmError::ServiceUnavailable(_) => "service_unavailable",
            LlmError::Timeout { .. } => "timeout",
            LlmError::RateLimited { .. } => "rate_limited",
        }
    }
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlmError::ContextLengthExceeded { prompt_tokens, window } => write!(
                f,
                "prompt of {prompt_tokens} tokens exceeds the {window}-token context window"
            ),
            LlmError::ServiceUnavailable(msg) => write!(f, "service unavailable: {msg}"),
            LlmError::Timeout { seconds } => write!(f, "call timed out after {seconds:.1}s"),
            LlmError::RateLimited { retry_after_seconds } => {
                write!(f, "rate limited; retry after {retry_after_seconds:.1}s")
            }
        }
    }
}

impl std::error::Error for LlmError {}

/// One model response.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    pub text: String,
    pub usage: TokenUsage,
    /// Simulated wall-clock seconds for this call (returned, not slept, so
    /// experiments can account for LLM latency without waiting for it).
    pub latency_seconds: f64,
}

/// A text-completion backend.
pub trait LanguageModel: Send + Sync {
    fn model_name(&self) -> &str;

    /// Context window in tokens (prompts beyond it are rejected).
    fn context_window(&self) -> usize;

    /// Complete a prompt.
    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError>;

    /// The model this backend would serve `prompt` with. Single-model
    /// backends answer `model_name()`; a router inspects the prompt's
    /// role and answers the routed model, so caches keyed on this never
    /// conflate completions from different models.
    fn model_for(&self, _prompt: &Prompt) -> &str {
        self.model_name()
    }
}
