//! Per-role model routing, end to end: `--route` spec parsing surfaces
//! structured errors, routed cache keys can never collide across models,
//! routed chain runs are invariant to `--llm-concurrency`, and cheap
//! routings bill strictly less than the uniform-strong baseline while
//! still producing a working pipeline.

use catdb_bench::{prepare, test_score, traced, BenchArgs};
use catdb_core::{measured_cost, RunSpec};
use catdb_data::{generate, GenOptions};
use catdb_llm::{Prompt, RouteError, RouteSpec};
use catdb_sched::Fingerprint;
use proptest::prelude::*;

const STRONG: &str = "refine=gpt-4o,generate=gpt-4o,select=gpt-4o,fix=gpt-4o";
const CHEAP: &str = "refine=llama,generate=gpt-4o,select=mini,fix=mini";

#[test]
fn route_parse_surfaces_structured_errors() {
    assert!(matches!(RouteSpec::parse(""), Err(RouteError::EmptySpec)));
    assert!(matches!(RouteSpec::parse(" , "), Err(RouteError::EmptySpec)));
    assert!(matches!(
        RouteSpec::parse("pilot=gpt-4o"),
        Err(RouteError::UnknownRole { role }) if role == "pilot"
    ));
    assert!(matches!(
        RouteSpec::parse("refine=claude"),
        Err(RouteError::UnknownModel { model }) if model == "claude"
    ));
    assert!(matches!(
        RouteSpec::parse("fix=mini,fix=gpt-4o"),
        Err(RouteError::DuplicateRole { role }) if role == "fix"
    ));
    assert!(matches!(
        RouteSpec::parse("refine"),
        Err(RouteError::MissingSeparator { entry }) if entry == "refine"
    ));
    // The messages must name what was wrong and what is accepted — they
    // are the CLI's only feedback on a bad --route.
    let msg = RouteSpec::parse("refine=claude").unwrap_err().to_string();
    assert!(msg.contains("claude") && msg.contains("gpt-4o-mini"), "{msg}");
    let msg = RouteSpec::parse("pilot=gpt-4o").unwrap_err().to_string();
    assert!(msg.contains("pilot") && msg.contains("refine"), "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The completion cache is keyed on (routed model, prompt, decode
    /// options): for any prompt, two different routed models must never
    /// share a cache entry, or a cheap model's answer could be served
    /// where a strong model was routed.
    #[test]
    fn cache_keys_never_collide_across_routed_models(
        system in "[a-z ]{0,40}",
        user in "[a-z <>/A-Z]{1,60}",
    ) {
        let prompt = Prompt::new(system.as_str(), user.as_str());
        let models = ["gpt-4o", "gemini-1.5-pro", "llama3.1-70b", "gpt-4o-mini"];
        for (i, a) in models.iter().enumerate() {
            for b in &models[i + 1..] {
                prop_assert_ne!(
                    Fingerprint::of(a, &prompt, "seed=42"),
                    Fingerprint::of(b, &prompt, "seed=42"),
                    "models {} and {} collided", a, b
                );
            }
        }
    }
}

/// The bench's routed run of gpt-4o under `--route route` at `seed`.
fn routed_spec(route: &str, seed: u64) -> RunSpec {
    let argv = ["--route", route].map(String::from);
    let args = BenchArgs::from_args(&argv).expect("valid route");
    args.routed("gpt-4o", seed).expect("--route was given")
}

#[test]
fn routed_chain_output_identical_across_llm_concurrency() {
    let g = generate("diabetes", &GenOptions { max_rows: 300, scale: 1.0, seed: 7 })
        .expect("known dataset");
    let spec = routed_spec(CHEAP, 11);
    let p = prepare(&g, &spec, &*spec.llm());
    let mut sources = Vec::new();
    for concurrency in [1usize, 4] {
        // Fresh transport per run: retry/breaker state must not leak
        // between concurrency levels.
        let spec = RunSpec { beta: 2, llm_concurrency: concurrency, ..spec.clone() };
        let outcome = spec.generate(&p.entry, &p.train, &p.test, &*spec.llm(), None);
        assert!(outcome.success, "routed chain failed at concurrency {concurrency}");
        sources.push(outcome.source);
    }
    assert_eq!(sources[0], sources[1], "concurrency 1 vs 4 diverged");
}

/// Run refinement + generation end to end under one routing, tracing
/// every LLM call, and return (billed USD, success, test score).
fn routed_run_cost(route: &str, seed: u64) -> (f64, bool, f64) {
    let g = generate("diabetes", &GenOptions { max_rows: 300, scale: 1.0, seed })
        .expect("known dataset");
    let spec = routed_spec(route, seed);
    let llm = spec.llm();
    let (outcome, trace) = traced(|| {
        let p = prepare(&g, &spec, &*llm);
        spec.generate(&p.entry, &p.train, &p.test, &*llm, None)
    });
    let cost = measured_cost(&trace);
    assert!(cost.llm_calls > 0, "route '{route}' billed no LLM calls");
    (cost.usd, outcome.success, test_score(&outcome))
}

#[test]
fn cheap_routing_bills_strictly_less_than_uniform_strong() {
    let (strong_usd, strong_ok, strong_score) = routed_run_cost(STRONG, 7);
    let (cheap_usd, cheap_ok, cheap_score) = routed_run_cost(CHEAP, 7);
    assert!(strong_ok && cheap_ok, "both routings must produce a working pipeline");
    assert!(
        cheap_usd < strong_usd,
        "cheap routing billed {cheap_usd} USD, not below strong {strong_usd} USD"
    );
    // Equal pipeline output: routing refinement and fixing to cheaper
    // models must not cost accuracy on this workload.
    assert!(
        (cheap_score - strong_score).abs() < 1e-9,
        "cheap routing changed the test score: {cheap_score} vs {strong_score}"
    );
}

#[test]
fn auto_routing_bills_strictly_less_than_uniform_strong() {
    let (strong_usd, strong_ok, _) = routed_run_cost(STRONG, 7);
    let (auto_usd, auto_ok, auto_score) = routed_run_cost("auto", 7);
    assert!(strong_ok && auto_ok, "both routings must produce a working pipeline");
    assert!(
        auto_usd < strong_usd,
        "auto routing billed {auto_usd} USD, not below strong {strong_usd} USD"
    );
    assert!(auto_score > 0.5, "auto routing produced a degenerate pipeline: {auto_score}");
}
