//! The token cost model of Section 4.1 (Equations 1 and 2).
//!
//! `C(P_p, P_e, γ, τ₂) = γ·L(P_p) + Σᵢ Σⱼ L(P_eᵢⱼ)` for single-prompt
//! CatDB, and the chain variant adds per-chunk pre-processing and
//! feature-engineering prompt costs. These are *predictions* from prompt
//! sizes; actual measured usage lives in [`catdb_llm::CostLedger`].

/// Eq. 1 — predicted cost of single-prompt CatDB.
///
/// * `pipeline_prompt_tokens` — `L(P_p)`.
/// * `error_prompt_tokens[i][j]` — `L(P_eᵢⱼ)` for interaction `i`,
///   correction attempt `j` (ragged; attempts vary per interaction).
pub fn single_prompt_cost(
    pipeline_prompt_tokens: usize,
    gamma: usize,
    error_prompt_tokens: &[Vec<usize>],
) -> usize {
    let base = gamma * pipeline_prompt_tokens;
    let fixes: usize = error_prompt_tokens.iter().flatten().sum();
    base + fixes
}

/// Eq. 2 — predicted cost of CatDB Chain: the model-selection prompt cost
/// plus, for each of the β chunks, the pre-processing and feature-
/// engineering prompt costs (each with their own error-handling terms).
pub struct ChainStageCost {
    pub prompt_tokens: usize,
    pub gamma: usize,
    pub error_prompt_tokens: Vec<Vec<usize>>,
}

impl ChainStageCost {
    pub fn cost(&self) -> usize {
        single_prompt_cost(self.prompt_tokens, self.gamma, &self.error_prompt_tokens)
    }
}

pub fn chain_cost(
    model_selection: &ChainStageCost,
    preprocessing: &[ChainStageCost],
    feature_engineering: &[ChainStageCost],
) -> usize {
    model_selection.cost()
        + preprocessing.iter().map(|s| s.cost()).sum::<usize>()
        + feature_engineering.iter().map(|s| s.cost()).sum::<usize>()
}

// ---------------------------------------------------------------------------
// Trace-derived measured cost (the observability counterpart of Eqs. 1–2).
// ---------------------------------------------------------------------------

/// Measured dollar/token usage aggregated from a recorded trace.
///
/// Transport retries are real spend: the `input_tokens` and `usd` totals
/// include the wasted prompt tokens/dollars of failed attempts recorded
/// as `LlmRetry` events, alongside every served `LlmCall`.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredCost {
    pub input_tokens: usize,
    pub output_tokens: usize,
    pub usd: f64,
    pub llm_calls: usize,
    /// Failed transport attempts (retried or abandoned).
    pub retries: usize,
    /// Prompt tokens consumed by failed attempts (included in
    /// `input_tokens`).
    pub retry_tokens: usize,
    /// Dollars consumed by failed attempts (included in `usd`).
    pub retry_usd: f64,
    /// Requests served from the completion cache (or coalesced onto an
    /// in-flight duplicate). Billed at zero: these never contribute to
    /// `input_tokens`, `output_tokens`, or `usd`.
    pub cache_hits: usize,
    /// Tokens the cache avoided re-spending (NOT included in the token
    /// totals above — this is the counterfactual upstream usage).
    pub cache_saved_tokens: usize,
    /// Dollars the cache avoided re-spending (NOT included in `usd`).
    pub cache_saved_usd: f64,
}

impl MeasuredCost {
    pub fn total_tokens(&self) -> usize {
        self.input_tokens + self.output_tokens
    }

    /// Fraction of the dollar total burned on failed attempts — the
    /// cost-overhead metric of the fig14 fault sweep.
    pub fn retry_overhead(&self) -> f64 {
        if self.usd <= 0.0 {
            0.0
        } else {
            self.retry_usd / self.usd
        }
    }
}

/// Sum every `LlmCall` and `LlmRetry` event in the trace into one
/// measured total.
pub fn measured_cost(trace: &catdb_trace::Trace) -> MeasuredCost {
    let (input_tokens, output_tokens) = trace.total_llm_tokens();
    let retry_tokens = trace.retry_tokens();
    let retry_usd = trace.retry_cost();
    MeasuredCost {
        input_tokens: input_tokens + retry_tokens,
        output_tokens,
        usd: trace.total_llm_cost() + retry_usd,
        llm_calls: trace.llm_call_count(),
        retries: trace.llm_retry_count(),
        retry_tokens,
        retry_usd,
        cache_hits: trace.cache_hit_count(),
        cache_saved_tokens: trace.cache_saved_tokens(),
        cache_saved_usd: trace.cache_saved_cost(),
    }
}

/// Re-price a trace's calls under a given model profile. Since the
/// simulator stamps each `LlmCall` with its profile's own pricing at
/// emission time, re-deriving the dollar total from the recorded token
/// counts must reproduce `Trace::total_llm_cost` exactly when the same
/// profile served all calls — the consistency the cost tests pin down.
pub fn reprice(trace: &catdb_trace::Trace, profile: &catdb_llm::ModelProfile) -> f64 {
    catdb_trace::canonical_sum(trace.events.iter().filter_map(|r| match &r.event {
        catdb_trace::TraceEvent::LlmCall { prompt_tokens, completion_tokens, .. } => {
            Some(profile.cost_usd(*prompt_tokens, *completion_tokens))
        }
        _ => None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_sums_interactions_and_fixes() {
        // γ=2 interactions at 100 tokens, with fixes of 10+20 and 5.
        let cost = single_prompt_cost(100, 2, &[vec![10, 20], vec![5]]);
        assert_eq!(cost, 235);
        assert_eq!(single_prompt_cost(100, 1, &[]), 100);
    }

    #[test]
    fn eq2_adds_stage_costs() {
        let stage =
            |p: usize| ChainStageCost { prompt_tokens: p, gamma: 1, error_prompt_tokens: vec![] };
        let total = chain_cost(&stage(50), &[stage(30), stage(30)], &[stage(40), stage(40)]);
        assert_eq!(total, 190);
    }

    #[test]
    fn chain_costs_exceed_single_for_same_content() {
        // The chain re-sends context per stage, so with equal per-prompt
        // sizes and more prompts it always costs at least as much.
        let single = single_prompt_cost(120, 1, &[]);
        let stage =
            |p: usize| ChainStageCost { prompt_tokens: p, gamma: 1, error_prompt_tokens: vec![] };
        let chain = chain_cost(&stage(120), &[stage(80)], &[stage(80)]);
        assert!(chain > single);
    }

    use catdb_llm::{LanguageModel, ModelProfile, Prompt, SimLlm};
    use std::sync::Arc;

    fn traced_sim_run(profile: ModelProfile) -> catdb_trace::Trace {
        let sink = Arc::new(catdb_trace::TraceSink::new());
        let _guard = catdb_trace::install(sink.clone());
        let llm = SimLlm::new(profile, 9);
        let prompt = Prompt::new(
            "You are a data science assistant.",
            "<TASK>pipeline_generation</TASK>\n\
             <DATASET name=\"toy\" rows=\"300\" target=\"y\" task=\"binary_classification\" />\n\
             <SCHEMA>\n\
             col name=\"a\" type=\"float\" feature=\"numerical\" missing=\"0.1\"\n\
             col name=\"y\" type=\"string\" feature=\"categorical\" distinct_count=\"2\"\n\
             </SCHEMA>",
        );
        for _ in 0..4 {
            llm.complete(&prompt).expect("completion");
        }
        sink.snapshot()
    }

    #[test]
    fn trace_cost_matches_model_pricing_for_all_paper_models() {
        for profile in ModelProfile::paper_models() {
            let trace = traced_sim_run(profile.clone());
            let measured = measured_cost(&trace);
            assert_eq!(measured.llm_calls, 4, "{}", profile.name);
            assert!(measured.input_tokens > 0 && measured.output_tokens > 0);

            // The dollar total recorded in the trace equals re-pricing the
            // recorded token counts with the profile's per-1k rates.
            let expected = profile.cost_usd(measured.input_tokens, measured.output_tokens);
            assert!(
                (measured.usd - expected).abs() < 1e-12,
                "{}: trace {:.8} vs pricing {:.8}",
                profile.name,
                measured.usd,
                expected
            );
            assert_eq!(reprice(&trace, &profile).to_bits(), trace.total_llm_cost().to_bits());
        }
    }

    #[test]
    fn measured_cost_includes_retry_waste() {
        let sink = Arc::new(catdb_trace::TraceSink::new());
        let _guard = catdb_trace::install(sink.clone());
        let profile = ModelProfile::gpt_4o();
        // One served call…
        let llm = SimLlm::new(profile.clone(), 4);
        let prompt = Prompt::new("sys", "<TASK>pipeline_generation</TASK>");
        llm.complete(&prompt).expect("completion");
        // …plus two failed attempts recorded by a resilient client.
        for attempt in 1..=2usize {
            catdb_trace::emit(catdb_trace::TraceEvent::LlmRetry {
                model: profile.name.clone(),
                attempt,
                error: "service_unavailable".into(),
                backoff_seconds: 1.0,
                prompt_tokens: 200,
                cost: profile.cost_usd(200, 0),
            });
        }
        let trace = sink.snapshot();
        let measured = measured_cost(&trace);
        assert_eq!(measured.retries, 2);
        assert_eq!(measured.retry_tokens, 400);
        let (served_in, _) = trace.total_llm_tokens();
        assert_eq!(measured.input_tokens, served_in + 400);
        let expected_retry_usd = 2.0 * profile.cost_usd(200, 0);
        assert!((measured.retry_usd - expected_retry_usd).abs() < 1e-12);
        assert!((measured.usd - (trace.total_llm_cost() + expected_retry_usd)).abs() < 1e-12);
        assert!(measured.retry_overhead() > 0.0 && measured.retry_overhead() < 1.0);
    }

    #[test]
    fn cache_hits_are_reported_but_billed_at_zero() {
        let sink = Arc::new(catdb_trace::TraceSink::new());
        let _guard = catdb_trace::install(sink.clone());
        let llm = SimLlm::new(ModelProfile::gpt_4o(), 4);
        let sched =
            catdb_sched::LlmScheduler::new(&llm, Arc::new(catdb_sched::CompletionCache::new(64)));
        let prompt = Prompt::new("sys", "<TASK>pipeline_generation</TASK>");
        let first = sched.complete(&prompt).expect("upstream completion");
        let billed = measured_cost(&sink.snapshot());
        // Three repeats: all served from the cache, zero extra spend.
        for _ in 0..3 {
            assert_eq!(sched.complete(&prompt).expect("cached completion").text, first.text);
        }
        let measured = measured_cost(&sink.snapshot());
        assert_eq!(measured.cache_hits, 3);
        assert_eq!(measured.llm_calls, 1);
        assert_eq!(measured.input_tokens, billed.input_tokens);
        assert_eq!(measured.output_tokens, billed.output_tokens);
        assert!((measured.usd - billed.usd).abs() < 1e-15, "hits must not add cost");
        // The savings figure reflects the counterfactual re-spend.
        assert_eq!(measured.cache_saved_tokens, 3 * billed.total_tokens());
        assert!((measured.cache_saved_usd - 3.0 * billed.usd).abs() < 1e-12);
    }

    #[test]
    fn pricing_ordering_matches_the_real_apis() {
        // Per-token, GPT-4o is the most expensive of the three and the
        // Llama endpoint the cheapest; equal token usage must preserve
        // that ordering in dollars.
        let gpt = ModelProfile::gpt_4o().cost_usd(10_000, 2_000);
        let gem = ModelProfile::gemini_1_5_pro().cost_usd(10_000, 2_000);
        let llama = ModelProfile::llama3_1_70b().cost_usd(10_000, 2_000);
        assert!(gpt > gem && gem > llama, "{gpt} {gem} {llama}");
        // Spot-check the gpt-4o rate card: 2.5 $/1M input, 10 $/1M output.
        assert!((ModelProfile::gpt_4o().cost_usd(1_000_000, 0) - 2.5).abs() < 1e-9);
        assert!((ModelProfile::gpt_4o().cost_usd(0, 1_000_000) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn repricing_with_another_profile_scales_by_rate_ratio() {
        let trace = traced_sim_run(ModelProfile::gemini_1_5_pro());
        let as_gpt = reprice(&trace, &ModelProfile::gpt_4o());
        let as_gem = reprice(&trace, &ModelProfile::gemini_1_5_pro());
        // gpt-4o charges exactly 2× gemini-1.5-pro on both token kinds.
        assert!((as_gpt - 2.0 * as_gem).abs() < 1e-12, "{as_gpt} vs {as_gem}");
    }
}
