//! End-to-end observability: a full CatDB run on Diabetes recorded
//! through `catdb-trace` — prompt/LLM accounting, span nesting, pipeline
//! operator coverage, and JSON export/import fidelity.

use catdb_bench::{prepare, traced, BenchArgs};
use catdb_catalog::SPAN_REFINE_DATASET;
use catdb_core::{RunSpec, SPAN_GENERATE_PIPELINE};
use catdb_data::{generate, GenOptions};
use catdb_pipeline::SPAN_EXECUTE_PIPELINE;
use catdb_profiler::SPAN_PROFILE_TABLE;
use catdb_trace::{Trace, TraceEvent};

fn gen_opts() -> GenOptions {
    GenOptions { max_rows: 350, scale: 1.0, seed: 11 }
}

/// The bench's default run of `model` at `seed`.
fn bench_spec(model: &str, seed: u64) -> RunSpec {
    BenchArgs::from_args(&[]).expect("no flags").spec(model, seed)
}

fn diabetes_trace() -> (catdb_core::GenerationOutcome, Trace) {
    let g = generate("diabetes", &gen_opts()).unwrap();
    let spec = bench_spec("gpt-4o", 11);
    let llm = spec.llm();
    let p = prepare(&g, &spec, &*llm);
    traced(|| spec.generate(&p.entry, &p.train, &p.test, &*llm, None))
}

#[test]
fn diabetes_run_records_full_trace() {
    let (outcome, trace) = diabetes_trace();
    assert!(outcome.success);

    // At least one prompt was built and one LLM call made, with real
    // token counts behind them.
    let events = trace.events_modulo_timing();
    let prompts = events.iter().filter(|e| e.kind() == "prompt_built").count();
    assert!(prompts >= 1, "expected PromptBuilt events, got {events:?}");
    assert!(trace.llm_call_count() >= 1);
    let (input, output) = trace.total_llm_tokens();
    assert!(input > 0 && output > 0, "tokens must be nonzero: {input}/{output}");
    assert!(trace.total_llm_cost() > 0.0);

    // The trace agrees with the outcome's own ledger on totals.
    assert_eq!(input, outcome.ledger.total().input);
    assert_eq!(output, outcome.ledger.total().output);

    // Span nesting is well formed: unique ids, parents precede children,
    // ends after starts.
    trace.check_well_formed().expect("span tree well formed");
    assert!(
        !trace.spans_named(SPAN_GENERATE_PIPELINE).is_empty(),
        "generation span missing: {:?}",
        trace.spans
    );
    assert!(!trace.spans_named(SPAN_EXECUTE_PIPELINE).is_empty(), "execution span missing");
    // Pipeline execution happened inside the generation session.
    let gen_id = trace.spans_named(SPAN_GENERATE_PIPELINE)[0].id;
    assert!(trace.spans_named(SPAN_EXECUTE_PIPELINE).iter().all(|s| s.parent == Some(gen_id)));

    // Executed operators were recorded with row counts.
    let ops: Vec<&TraceEvent> = events.iter().filter(|e| e.kind() == "pipeline_op").collect();
    assert!(!ops.is_empty(), "expected PipelineOp events");
    for op in ops {
        if let TraceEvent::PipelineOp { rows_in, op, .. } = op {
            assert!(*rows_in > 0, "operator {op} saw no rows");
        }
    }
}

#[test]
fn trace_json_round_trip_is_identity() {
    let (_, trace) = diabetes_trace();
    let json = trace.to_json_string();
    let reloaded = Trace::from_json_str(&json).expect("re-import");
    assert_eq!(reloaded.spans, trace.spans);
    assert_eq!(reloaded.events, trace.events);
    assert_eq!(reloaded.counters, trace.counters);
    // Derived metrics survive the round trip too.
    assert_eq!(reloaded.total_llm_tokens(), trace.total_llm_tokens());
    assert_eq!(reloaded.llm_tokens_by_task(), trace.llm_tokens_by_task());
}

#[test]
fn refinement_and_profiling_are_traced() {
    let g = generate("eu-it", &gen_opts()).unwrap();
    let spec = bench_spec("gemini-1.5-pro", 5);
    let llm = spec.llm();
    let (p, trace) = traced(|| prepare(&g, &spec, &*llm));
    assert!(p.refinement.is_some());

    let events = trace.events_modulo_timing();
    // Profiling runs at least twice (raw + refined), covering every column.
    assert!(trace.spans_named(SPAN_PROFILE_TABLE).len() >= 2);
    assert!(events.iter().any(|e| e.kind() == "profile_column"));
    // Refinement emits its prompts and (on eu-it, which is built around
    // categorical duplicates) at least one RefineStep.
    assert!(!trace.spans_named(SPAN_REFINE_DATASET).is_empty());
    let tasks = trace.llm_tokens_by_task();
    assert!(
        tasks.keys().any(|t| t == "feature_type_inference" || t == "categorical_refinement"),
        "refinement prompts should be task-tagged: {tasks:?}"
    );
    assert!(
        events.iter().any(|e| e.kind() == "refine_step"),
        "eu-it refinement should merge values: {events:?}"
    );
}
