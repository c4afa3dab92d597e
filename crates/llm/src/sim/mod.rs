//! The deterministic LLM simulator.
//!
//! `SimLlm` implements [`LanguageModel`] by parsing the structured prompt
//! text (within its context window) and producing a response for the
//! recognized task: pipeline generation (full or chain stage), error
//! fixing, feature-type inference, or categorical-value refinement.
//!
//! Determinism: every call derives its RNG from `(seed, prompt hash,
//! repeat index)`, where the repeat index counts prior completions of the
//! *same* prompt — the same session replays identically, repeated calls
//! with the same prompt differ (the paper observes variation across
//! iterations "even with LLM temperature set to zero"), and the response
//! to a given prompt does not depend on what *other* prompts were served
//! before it. That last property makes the simulator order-independent:
//! a concurrent scheduler may interleave distinct prompts in any order
//! and every caller still receives byte-identical text.

pub mod codegen;
pub mod dedup;
pub mod fixer;
pub mod typeinfer;

use crate::client::{Completion, LanguageModel, LlmError};
use crate::profile::ModelProfile;
use crate::prompt::{LlmTaskKind, Prompt, PromptSpec};
use crate::tokens::{estimate_tokens, TokenUsage};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Per-prompt completion counters: total calls served plus how many
/// times each distinct prompt (by hash) has been completed.
#[derive(Default)]
pub(crate) struct CallCounters {
    total: u64,
    per_prompt: HashMap<u64, u64>,
}

impl CallCounters {
    /// Record one completion of `prompt_hash`, returning its 0-based
    /// repeat index.
    pub(crate) fn next_repeat(&mut self, prompt_hash: u64) -> u64 {
        self.total += 1;
        let slot = self.per_prompt.entry(prompt_hash).or_insert(0);
        let repeat = *slot;
        *slot += 1;
        repeat
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

/// Hash of the rendered prompt text, shared by the simulator and the
/// fault injector so both index their repeat streams the same way.
pub(crate) fn prompt_hash(prompt: &Prompt) -> u64 {
    let mut h = DefaultHasher::new();
    prompt.user.hash(&mut h);
    prompt.system.hash(&mut h);
    h.finish()
}

/// A simulated LLM with a fixed capability profile.
pub struct SimLlm {
    profile: ModelProfile,
    seed: u64,
    calls: Mutex<CallCounters>,
}

impl SimLlm {
    pub fn new(profile: ModelProfile, seed: u64) -> SimLlm {
        SimLlm { profile, seed, calls: Mutex::new(CallCounters::default()) }
    }

    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Number of completions served so far.
    pub fn call_count(&self) -> u64 {
        self.calls.lock().total()
    }

    fn rng_for(&self, prompt: &Prompt, repeat: u64) -> StdRng {
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(prompt_hash(prompt))
            .wrapping_add(repeat.wrapping_mul(0x2545_F491_4F6C_DD1D));
        StdRng::seed_from_u64(seed)
    }
}

impl LanguageModel for SimLlm {
    fn model_name(&self) -> &str {
        &self.profile.name
    }

    fn context_window(&self) -> usize {
        self.profile.context_window
    }

    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        let prompt_tokens = prompt.token_len();
        if prompt_tokens > self.profile.context_window {
            return Err(LlmError::ContextLengthExceeded {
                prompt_tokens,
                window: self.profile.context_window,
            });
        }
        let repeat = self.calls.lock().next_repeat(prompt_hash(prompt));
        let mut rng = self.rng_for(prompt, repeat);
        let spec = PromptSpec::parse(prompt, self.profile.context_window);

        let text = match spec.task {
            Some(LlmTaskKind::PipelineGeneration) => {
                codegen::generate(&spec, &self.profile, &mut rng, codegen::GenStage::Full)
            }
            Some(LlmTaskKind::Preprocessing) => {
                codegen::generate(&spec, &self.profile, &mut rng, codegen::GenStage::Preprocessing)
            }
            Some(LlmTaskKind::FeatureEngineering) => codegen::generate(
                &spec,
                &self.profile,
                &mut rng,
                codegen::GenStage::FeatureEngineering,
            ),
            Some(LlmTaskKind::ModelSelection) => {
                codegen::generate(&spec, &self.profile, &mut rng, codegen::GenStage::ModelSelection)
            }
            Some(LlmTaskKind::ErrorFix) => fixer::fix(&spec, &self.profile, &mut rng),
            Some(LlmTaskKind::FeatureTypeInference) => {
                typeinfer::respond(&spec, &self.profile, &mut rng)
            }
            Some(LlmTaskKind::CategoricalRefinement) => {
                dedup::respond(&spec, &self.profile, &mut rng)
            }
            _ => "I can help with data-centric ML pipeline generation.".to_string(),
        };

        // Verbosity pads output cost (comments the model writes around the
        // code), without altering the payload.
        let output_tokens =
            ((estimate_tokens(&text) as f64) * self.profile.verbosity).round() as usize;
        let latency_seconds =
            (prompt_tokens + output_tokens) as f64 / 1000.0 * self.profile.seconds_per_1k_tokens;
        catdb_trace::emit(catdb_trace::TraceEvent::LlmCall {
            model: self.profile.name.clone(),
            prompt_tokens,
            completion_tokens: output_tokens,
            cost: self.profile.cost_usd(prompt_tokens, output_tokens),
        });
        Ok(Completion {
            text,
            usage: TokenUsage::new(prompt_tokens, output_tokens),
            latency_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline_prompt() -> Prompt {
        Prompt::new(
            "You are a data science assistant.",
            r#"<TASK>pipeline_generation</TASK>
<DATASET name="toy" rows="500" target="y" task="binary_classification" />
<SCHEMA>
col name="a" type="float" feature="numerical" missing="0.1"
col name="b" type="string" feature="categorical" distinct_count="3" values="x|y|z"
col name="y" type="string" feature="categorical" distinct_count="2"
</SCHEMA>
<RULES>
rule preprocessing impute_missing
rule fe encode_categorical
rule model model_selection
</RULES>
"#,
        )
    }

    #[test]
    fn completes_pipeline_generation() {
        let llm = SimLlm::new(
            ModelProfile {
                semantic_fault_rate: 0.0,
                syntax_fault_rate: 0.0,
                env_fault_rate: 0.0,
                ..ModelProfile::gpt_4o()
            },
            1,
        );
        let c = llm.complete(&pipeline_prompt()).unwrap();
        assert!(c.text.contains("pipeline {"));
        assert!(c.text.contains("model classifier"));
        assert!(c.usage.input > 0 && c.usage.output > 0);
        assert!(c.latency_seconds > 0.0);
    }

    #[test]
    fn oversized_prompt_is_rejected() {
        let mut profile = ModelProfile::gpt_4o();
        profile.context_window = 10;
        let llm = SimLlm::new(profile, 1);
        let err = llm.complete(&pipeline_prompt()).unwrap_err();
        assert!(matches!(err, LlmError::ContextLengthExceeded { .. }));
    }

    #[test]
    fn repeated_calls_vary_but_replay_identically() {
        let prompt = pipeline_prompt();
        let llm_a = SimLlm::new(ModelProfile::gemini_1_5_pro(), 9);
        let first_a = llm_a.complete(&prompt).unwrap().text;
        let second_a = llm_a.complete(&prompt).unwrap().text;
        let llm_b = SimLlm::new(ModelProfile::gemini_1_5_pro(), 9);
        let first_b = llm_b.complete(&prompt).unwrap().text;
        // Same repeat index → identical output; the repeat counter moves
        // the stream between identical calls.
        assert_eq!(first_a, first_b);
        // (first and second may or may not differ, but the counter ensures
        // the streams are decoupled; just check both are valid programs.)
        assert!(second_a.contains("model "));
        assert_eq!(llm_a.call_count(), 2);
    }

    #[test]
    fn responses_do_not_depend_on_other_prompts_served_before() {
        let pipeline = pipeline_prompt();
        let other = Prompt::new("You are a data science assistant.", "hello there");
        // Session 1 serves (other, pipeline); session 2 serves (pipeline)
        // directly. Per-prompt repeat streams make both pipelines equal —
        // the property a concurrent scheduler relies on.
        let llm_a = SimLlm::new(ModelProfile::gemini_1_5_pro(), 9);
        llm_a.complete(&other).unwrap();
        let interleaved = llm_a.complete(&pipeline).unwrap().text;
        let llm_b = SimLlm::new(ModelProfile::gemini_1_5_pro(), 9);
        let direct = llm_b.complete(&pipeline).unwrap().text;
        assert_eq!(interleaved, direct);
    }

    #[test]
    fn unknown_task_yields_generic_reply() {
        let llm = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let c = llm.complete(&Prompt::new("", "hello there")).unwrap();
        assert!(!c.text.contains("pipeline {"));
    }
}
