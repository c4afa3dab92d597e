//! # catdb-trace — run-trace observability
//!
//! A zero-external-dependency (workspace-shim-only), deterministic
//! span/event/counter recorder for CatDB runs. Every subsystem of the
//! reproduction — profiler, catalog refinement, prompt construction, the
//! LLM simulator, the generation loop, and the pipeline interpreter —
//! reports what it did through a [`TraceSink`]; benches and the `catdb`
//! binary read their figures back out of the resulting [`Trace`] instead
//! of re-deriving them ad hoc.
//!
//! Design points:
//!
//! * **Typed events** ([`TraceEvent`]) — one variant per instrumented
//!   quantity the paper's figures consume (per-column profiling time,
//!   refinement actions, prompt sizes, LLM token/cost accounting, error
//!   iterations, per-operator pipeline work).
//! * **Hierarchical spans** with monotonic timing: microseconds since the
//!   sink's epoch (`Instant`-based, never wall clock), parent links from
//!   an open-span stack kept per thread and per sink. A worker thread
//!   starts from the span its task was submitted under ([`install_at`]),
//!   so spans opened by parallel tasks nest under the submitter's span,
//!   never under each other.
//! * **Thread-safe sink**: all state behind a `parking_lot` mutex, so a
//!   single sink may be shared across worker threads.
//! * **Deterministic event order**: instrumented call sites emit in a
//!   fixed logical order (e.g. the profiler reports columns in schema
//!   order *after* its parallel join), so two runs with the same seeds
//!   produce identical event streams modulo the timing fields.
//! * **JSON export/import** round-trips a [`Trace`] through the exact
//!   value model used for `results/` files.
//!
//! Instrumented code does not thread a sink through every signature;
//! instead a sink is [`install`]ed for the current thread (stack-style,
//! re-entrant) and the free functions [`emit`], [`span`], and
//! [`add_counter`] no-op when no sink is installed — tracing is zero-cost
//! for callers that don't ask for it, and parallel tests cannot observe
//! each other's events.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One typed observation from an instrumented subsystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Per-column metadata extraction finished (profiler, Algorithm 1).
    ProfileColumn { column: String, feature_type: String, micros: u64 },
    /// One catalog-refinement action was applied (Section 3.2 / Table 4).
    RefineStep { column: String, action: String, distinct_before: usize, distinct_after: usize },
    /// A prompt was rendered for submission (Algorithm 3 / Figure 7).
    PromptBuilt { task: String, tokens: usize },
    /// One LLM completion was served, with its token and dollar cost.
    LlmCall { model: String, prompt_tokens: usize, completion_tokens: usize, cost: f64 },
    /// One error-management repair attempt (Algorithm 4, Figure 7).
    ErrorIteration { kind: String, attempt: usize },
    /// One pipeline operator executed over the train table.
    PipelineOp { op: String, rows_in: usize, rows_out: usize, micros: u64 },
    /// A transport-level LLM attempt failed and was (or is about to be)
    /// retried. `prompt_tokens`/`cost` are the *wasted* spend newly
    /// attributable to the failed attempt (zero when the attempt already
    /// produced a billed `LlmCall`, e.g. a deadline miss after a served
    /// completion); `backoff_seconds` is the simulated wait applied
    /// before the next attempt (zero when the budget is exhausted).
    LlmRetry {
        model: String,
        attempt: usize,
        error: String,
        backoff_seconds: f64,
        prompt_tokens: usize,
        cost: f64,
    },
    /// A per-model circuit breaker opened after consecutive failures.
    CircuitOpen { model: String, consecutive_failures: usize, cooldown_seconds: f64 },
    /// The resilience ladder degraded from one rung to the next (or to
    /// the handcrafted fallback when every LLM rung is exhausted).
    Degraded { from: String, to: String, reason: String },
    /// A completion was served from the content-addressed cache (or an
    /// in-flight coalesced call) instead of the upstream model. The
    /// token/cost fields record what the hit *saved* — the hit itself is
    /// billed at zero, so no `LlmCall` accompanies it and
    /// `total_llm_cost()` / `measured_cost()` are unaffected.
    CacheHit { model: String, saved_tokens: usize, saved_cost: f64, coalesced: bool },
    /// The route optimizer picked a per-role model assignment. `route` is
    /// the canonical `role=model,...` spec, `considered` the size of the
    /// enumerated search space, and `candidates` a shortlist of feasible
    /// assignments (`route`, expected accuracy, expected cost) that met
    /// the target, cheapest first.
    RouteDecision {
        target_accuracy: f64,
        considered: usize,
        candidates: Vec<(String, f64, f64)>,
        route: String,
        expected_accuracy: f64,
        expected_cost_usd: f64,
        baseline_cost_usd: f64,
    },
}

impl TraceEvent {
    /// Short label for summaries and debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ProfileColumn { .. } => "profile_column",
            TraceEvent::RefineStep { .. } => "refine_step",
            TraceEvent::PromptBuilt { .. } => "prompt_built",
            TraceEvent::LlmCall { .. } => "llm_call",
            TraceEvent::ErrorIteration { .. } => "error_iteration",
            TraceEvent::PipelineOp { .. } => "pipeline_op",
            TraceEvent::LlmRetry { .. } => "llm_retry",
            TraceEvent::CircuitOpen { .. } => "circuit_open",
            TraceEvent::Degraded { .. } => "degraded",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::RouteDecision { .. } => "route_decision",
        }
    }
}

/// A recorded event with its position in the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// 0-based position in the sink's event stream.
    pub seq: u64,
    /// Innermost span open on the recording thread, if any.
    pub span: Option<u64>,
    /// Microseconds since the sink's epoch (monotonic).
    pub at_micros: u64,
    pub event: TraceEvent,
}

/// A recorded span. `end_micros` is `None` while (or if never) closed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_micros: u64,
    pub end_micros: Option<u64>,
}

impl SpanRecord {
    pub fn duration_micros(&self) -> Option<u64> {
        self.end_micros.map(|e| e.saturating_sub(self.start_micros))
    }
}

/// An immutable snapshot of everything a sink recorded.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub spans: Vec<SpanRecord>,
    pub events: Vec<EventRecord>,
    pub counters: BTreeMap<String, f64>,
}

struct SinkState {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    counters: BTreeMap<String, f64>,
}

/// Callback invoked once per recorded event, after it has been appended
/// to the sink's stream (and with the sink's internal lock released, so
/// an observer may itself emit, snapshot, or block on I/O).
pub type EventObserver = Box<dyn Fn(&EventRecord) + Send + Sync>;

/// Thread-safe recorder. Cheap to share (`Arc<TraceSink>`); all mutation
/// goes through one short-lived `parking_lot` lock.
pub struct TraceSink {
    /// Process-unique identity, the key of this sink's open-span stacks.
    id: u64,
    epoch: Instant,
    state: Mutex<SinkState>,
    /// Live-streaming hook: the serve daemon forwards each event to the
    /// requesting client as it occurs instead of waiting for a snapshot.
    observer: Option<EventObserver>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    pub fn new() -> TraceSink {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        TraceSink {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            state: Mutex::new(SinkState {
                spans: Vec::new(),
                events: Vec::new(),
                counters: BTreeMap::new(),
            }),
            observer: None,
        }
    }

    /// A sink that additionally calls `observer` for every recorded
    /// event, in recording order, outside the sink's internal lock.
    pub fn with_observer(observer: impl Fn(&EventRecord) + Send + Sync + 'static) -> TraceSink {
        TraceSink { observer: Some(Box::new(observer)), ..TraceSink::new() }
    }

    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The calling thread's innermost open span on this sink: the last
    /// span it opened under its innermost install of this sink and has
    /// not closed, else the span that install inherited. A pool thread
    /// that runs another batch's task while it waits inside a span of
    /// its own thereby nests the task under the task's submitter.
    fn open_span(&self) -> Option<u64> {
        let (floor, inherited) = CURRENT.with(|c| {
            let c = c.borrow();
            match c.iter().rposition(|i| i.sink.id == self.id) {
                Some(k) => (k + 1, c[k].parent),
                None => (0, None),
            }
        });
        OPEN.with(|o| {
            let open = o.borrow();
            open.iter().rev().find(|e| e.sink == self.id && e.depth >= floor).map(|e| e.span)
        })
        .or(inherited)
    }

    /// Record one event under the calling thread's innermost open span.
    pub fn emit(&self, event: TraceEvent) {
        let span = self.open_span();
        let at = self.now_micros();
        let mut s = self.state.lock();
        let seq = s.events.len() as u64;
        let record = EventRecord { seq, span, at_micros: at, event };
        s.events.push(record.clone());
        drop(s);
        if let Some(observer) = &self.observer {
            observer(&record);
        }
    }

    /// Open a span as a child of the calling thread's innermost open
    /// span. Returns its id.
    pub fn begin_span(&self, name: &str) -> u64 {
        let parent = self.open_span();
        let at = self.now_micros();
        let mut s = self.state.lock();
        let id = s.spans.len() as u64;
        s.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_micros: at,
            end_micros: None,
        });
        drop(s);
        let depth = CURRENT.with(|c| c.borrow().len());
        OPEN.with(|o| o.borrow_mut().push(OpenSpan { sink: self.id, span: id, depth }));
        id
    }

    /// Close a span by id. Tolerates out-of-order closes (the id is
    /// removed wherever it sits in the thread's stack), double closes and
    /// unknown ids (no-ops). Ids are dense from 0 in push order, so a
    /// span's record sits at its id.
    pub fn end_span(&self, id: u64) {
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if let Some(pos) = open.iter().rposition(|e| e.sink == self.id && e.span == id) {
                open.remove(pos);
            }
        });
        let at = self.now_micros();
        let mut s = self.state.lock();
        let record = usize::try_from(id).ok().and_then(|i| s.spans.get_mut(i));
        if let Some(record) = record {
            if record.end_micros.is_none() {
                record.end_micros = Some(at);
            }
        }
    }

    /// Accumulate a named counter.
    pub fn add_counter(&self, name: &str, delta: f64) {
        let mut s = self.state.lock();
        *s.counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Raise a named high-water counter to `value` if it is larger than
    /// the recorded value (set-to-max, not accumulate) — for peaks like
    /// `profiler.peak_chunk_rss`.
    pub fn max_counter(&self, name: &str, value: f64) {
        let mut s = self.state.lock();
        let slot = s.counters.entry(name.to_string()).or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        let s = self.state.lock();
        Trace { spans: s.spans.clone(), events: s.events.clone(), counters: s.counters.clone() }
    }
}

// ---------------------------------------------------------------------------
// Thread-local installation.
// ---------------------------------------------------------------------------

/// One installation on a thread: the sink, and the span the thread's
/// work belongs under until it opens spans of its own.
struct Installed {
    sink: Arc<TraceSink>,
    parent: Option<u64>,
}

/// A span this thread opened and has not closed.
struct OpenSpan {
    sink: u64,
    span: u64,
    /// Installs on the thread when the span opened.
    depth: usize,
}

thread_local! {
    static CURRENT: RefCell<Vec<Installed>> = const { RefCell::new(Vec::new()) };
    /// This thread's open spans, innermost last.
    static OPEN: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// Keeps a sink installed for the current thread; uninstalls on drop.
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Install `sink` as the current thread's recorder until the returned
/// guard drops. Installation nests: an inner install shadows the outer
/// one, which becomes current again afterwards. Spans keep nesting under
/// the thread's innermost open span on `sink`.
#[must_use = "the sink is uninstalled when the guard drops"]
pub fn install(sink: Arc<TraceSink>) -> InstallGuard {
    let parent = sink.open_span();
    install_at(sink, parent)
}

/// [`install`] on a thread that runs work submitted from `parent`'s
/// thread (see [`current_span`]): spans and events the thread records
/// outside spans of its own become children of `parent`.
#[must_use = "the sink is uninstalled when the guard drops"]
pub fn install_at(sink: Arc<TraceSink>, parent: Option<u64>) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(Installed { sink, parent }));
    InstallGuard { _private: () }
}

/// The sink currently installed on this thread, if any.
pub fn current() -> Option<Arc<TraceSink>> {
    CURRENT.with(|c| c.borrow().last().map(|i| i.sink.clone()))
}

/// The innermost span open on this thread for the current sink, which a
/// task submitted to another thread should nest under.
pub fn current_span() -> Option<u64> {
    current().and_then(|sink| sink.open_span())
}

/// Emit an event to the current sink (no-op when none is installed).
pub fn emit(event: TraceEvent) {
    if let Some(sink) = current() {
        sink.emit(event);
    }
}

/// Accumulate a counter on the current sink (no-op when none installed).
pub fn add_counter(name: &str, delta: f64) {
    if let Some(sink) = current() {
        sink.add_counter(name, delta);
    }
}

/// Raise a high-water counter on the current sink (no-op when none
/// installed). See [`TraceSink::max_counter`].
pub fn max_counter(name: &str, value: f64) {
    if let Some(sink) = current() {
        sink.max_counter(name, value);
    }
}

/// Sum dollar amounts in one fixed order, ascending by
/// [`f64::total_cmp`]. Parallel LLM fan-out emits costs in completion
/// order, so a plain running sum could differ in the last bit between
/// two runs of the same seed; every cost total goes through here.
pub fn canonical_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.into_iter().collect();
    values.sort_by(f64::total_cmp);
    values.into_iter().sum()
}

/// RAII span on the current sink; ends when dropped. A no-op handle is
/// returned when no sink is installed. It cannot leave its thread: the
/// span sits on that thread's open-span stack.
pub struct SpanScope {
    sink: Option<(Arc<TraceSink>, u64)>,
    _thread_bound: PhantomData<*const ()>,
}

impl SpanScope {
    /// The span id, when a sink is recording.
    pub fn id(&self) -> Option<u64> {
        self.sink.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        if let Some((sink, id)) = self.sink.take() {
            sink.end_span(id);
        }
    }
}

/// Open a named span on the current sink (no-op when none installed).
#[must_use = "the span ends when the returned scope drops"]
pub fn span(name: &str) -> SpanScope {
    match current() {
        Some(sink) => {
            let id = sink.begin_span(name);
            SpanScope { sink: Some((sink, id)), _thread_bound: PhantomData }
        }
        None => SpanScope { sink: None, _thread_bound: PhantomData },
    }
}

// ---------------------------------------------------------------------------
// Trace queries — the accessors benches and tests consume.
// ---------------------------------------------------------------------------

impl Trace {
    /// Event payloads in stream order, with sequence/span/timing stripped:
    /// the determinism-comparable view ("identical modulo timing").
    pub fn events_modulo_timing(&self) -> Vec<TraceEvent> {
        self.events.iter().map(|r| r.event.clone()).collect()
    }

    /// Total `(prompt, completion)` tokens over all [`TraceEvent::LlmCall`]s.
    pub fn total_llm_tokens(&self) -> (usize, usize) {
        let mut input = 0;
        let mut output = 0;
        for r in &self.events {
            if let TraceEvent::LlmCall { prompt_tokens, completion_tokens, .. } = &r.event {
                input += prompt_tokens;
                output += completion_tokens;
            }
        }
        (input, output)
    }

    /// Total simulated dollar cost over all LLM calls.
    pub fn total_llm_cost(&self) -> f64 {
        canonical_sum(self.events.iter().filter_map(|r| match &r.event {
            TraceEvent::LlmCall { cost, .. } => Some(*cost),
            _ => None,
        }))
    }

    /// Number of LLM calls recorded.
    pub fn llm_call_count(&self) -> usize {
        self.events.iter().filter(|r| matches!(r.event, TraceEvent::LlmCall { .. })).count()
    }

    /// Number of transport-level retry events recorded.
    pub fn llm_retry_count(&self) -> usize {
        self.events.iter().filter(|r| matches!(r.event, TraceEvent::LlmRetry { .. })).count()
    }

    /// Wasted prompt tokens over all [`TraceEvent::LlmRetry`] events —
    /// input the failed attempts consumed without yielding a completion.
    pub fn retry_tokens(&self) -> usize {
        self.events
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::LlmRetry { prompt_tokens, .. } => Some(*prompt_tokens),
                _ => None,
            })
            .sum()
    }

    /// Wasted dollar cost over all [`TraceEvent::LlmRetry`] events.
    pub fn retry_cost(&self) -> f64 {
        canonical_sum(self.events.iter().filter_map(|r| match &r.event {
            TraceEvent::LlmRetry { cost, .. } => Some(*cost),
            _ => None,
        }))
    }

    /// Total simulated backoff seconds spent waiting between retries.
    pub fn retry_backoff_seconds(&self) -> f64 {
        self.events
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::LlmRetry { backoff_seconds, .. } => Some(*backoff_seconds),
                _ => None,
            })
            .sum()
    }

    /// Number of circuit-breaker openings recorded.
    pub fn circuit_open_count(&self) -> usize {
        self.events.iter().filter(|r| matches!(r.event, TraceEvent::CircuitOpen { .. })).count()
    }

    /// Number of degradation steps (rung-to-rung or to-handcraft) recorded.
    pub fn degraded_count(&self) -> usize {
        self.events.iter().filter(|r| matches!(r.event, TraceEvent::Degraded { .. })).count()
    }

    /// Number of error-management repair attempts recorded.
    pub fn error_iteration_count(&self) -> usize {
        self.events.iter().filter(|r| matches!(r.event, TraceEvent::ErrorIteration { .. })).count()
    }

    /// Number of completions served from the cache / coalesced in-flight.
    pub fn cache_hit_count(&self) -> usize {
        self.events.iter().filter(|r| matches!(r.event, TraceEvent::CacheHit { .. })).count()
    }

    /// Total tokens the cache hits avoided re-spending upstream.
    pub fn cache_saved_tokens(&self) -> usize {
        self.events
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::CacheHit { saved_tokens, .. } => Some(*saved_tokens),
                _ => None,
            })
            .sum()
    }

    /// Total dollar cost the cache hits avoided re-spending upstream.
    pub fn cache_saved_cost(&self) -> f64 {
        canonical_sum(self.events.iter().filter_map(|r| match &r.event {
            TraceEvent::CacheHit { saved_cost, .. } => Some(*saved_cost),
            _ => None,
        }))
    }

    /// `(prompt, completion)` tokens per prompt task, attributing each
    /// LLM call to the most recent [`TraceEvent::PromptBuilt`] before it
    /// in the stream (prompt construction immediately precedes
    /// submission at every instrumented call site). Calls with no prior
    /// `PromptBuilt` are grouped under `"untagged"`.
    pub fn llm_tokens_by_task(&self) -> BTreeMap<String, (usize, usize)> {
        let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        let mut last_task = "untagged".to_string();
        for r in &self.events {
            match &r.event {
                TraceEvent::PromptBuilt { task, .. } => last_task = task.clone(),
                TraceEvent::LlmCall { prompt_tokens, completion_tokens, .. } => {
                    let slot = out.entry(last_task.clone()).or_insert((0, 0));
                    slot.0 += prompt_tokens;
                    slot.1 += completion_tokens;
                }
                _ => {}
            }
        }
        out
    }

    /// Sum of per-column profiling extraction time, microseconds.
    pub fn profile_micros_total(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::ProfileColumn { micros, .. } => Some(*micros),
                _ => None,
            })
            .sum()
    }

    /// Sum of per-operator pipeline execution time, microseconds.
    pub fn pipeline_micros_total(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::PipelineOp { micros, .. } => Some(*micros),
                _ => None,
            })
            .sum()
    }

    /// All spans with the given name, in creation order.
    pub fn spans_named<'a>(&'a self, name: &str) -> Vec<&'a SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Duration in seconds of the *last* closed span with this name
    /// (e.g. the final full-table `execute_pipeline` of a session).
    pub fn last_span_seconds(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .filter(|s| s.name == name)
            .find_map(|s| s.duration_micros())
            .map(|micros| micros as f64 / 1e6)
    }

    /// Structural validation: parent links resolve to earlier spans,
    /// closed spans end no earlier than they start and lie within their
    /// closed parent's interval, event sequence numbers are consecutive,
    /// and event span references resolve.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for s in &self.spans {
            if let Some(p) = s.parent {
                let Some(parent) = self.spans.iter().find(|c| c.id == p) else {
                    return Err(format!("span {} has unknown parent {p}", s.id));
                };
                if parent.id >= s.id {
                    return Err(format!("span {} parent {p} is not older", s.id));
                }
                if let (Some(end), Some(parent_end)) = (s.end_micros, parent.end_micros) {
                    if s.start_micros < parent.start_micros || end > parent_end {
                        return Err(format!(
                            "span {} [{}, {end}] is not within its parent {p} [{}, {parent_end}]",
                            s.id, s.start_micros, parent.start_micros
                        ));
                    }
                }
            }
            if let Some(end) = s.end_micros {
                if end < s.start_micros {
                    return Err(format!("span {} ends before it starts", s.id));
                }
            }
        }
        for (i, r) in self.events.iter().enumerate() {
            if r.seq != i as u64 {
                return Err(format!("event {i} has sequence {}", r.seq));
            }
            if let Some(span) = r.span {
                if !self.spans.iter().any(|s| s.id == span) {
                    return Err(format!("event {i} references unknown span {span}"));
                }
            }
        }
        Ok(())
    }

    /// Export to the JSON value written under `results/`.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self)
    }

    /// Export as a pretty-printed JSON string.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("trace values always render")
    }

    /// Re-import a previously exported trace.
    pub fn from_json(value: &serde_json::Value) -> Result<Trace, serde_json::Error> {
        Deserialize::deserialize(value)
    }

    /// Re-import from JSON text.
    pub fn from_json_str(text: &str) -> Result<Trace, serde_json::Error> {
        Trace::from_json(&serde_json::from_str(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llm_event(n: usize) -> TraceEvent {
        TraceEvent::LlmCall {
            model: "gpt-4o".into(),
            prompt_tokens: 100 * n,
            completion_tokens: 10 * n,
            cost: 0.001 * n as f64,
        }
    }

    #[test]
    fn events_record_sequence_and_current_span() {
        let sink = TraceSink::new();
        sink.emit(llm_event(1));
        let outer = sink.begin_span("outer");
        sink.emit(llm_event(2));
        let inner = sink.begin_span("inner");
        sink.emit(llm_event(3));
        sink.end_span(inner);
        sink.end_span(outer);
        let t = sink.snapshot();
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events[0].span, None);
        assert_eq!(t.events[1].span, Some(outer));
        assert_eq!(t.events[2].span, Some(inner));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(outer));
        t.check_well_formed().unwrap();
    }

    #[test]
    fn span_timing_is_monotonic_and_closed() {
        let sink = TraceSink::new();
        let id = sink.begin_span("work");
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.end_span(id);
        let t = sink.snapshot();
        let s = &t.spans[0];
        assert!(s.end_micros.unwrap() >= s.start_micros);
        assert!(s.duration_micros().unwrap() >= 1_000);
    }

    #[test]
    fn double_and_out_of_order_end_are_tolerated() {
        let sink = TraceSink::new();
        let a = sink.begin_span("a");
        let b = sink.begin_span("b");
        sink.end_span(a); // out of order: a closed while b still open
        sink.emit(llm_event(1));
        sink.end_span(a); // double close: no-op
        sink.end_span(b);
        let t = sink.snapshot();
        assert_eq!(t.events[0].span, Some(b));
        // b outlived its parent a: the sink records it, the check flags it.
        let err = t.check_well_formed().unwrap_err();
        assert!(err.contains("is not within its parent"), "{err}");
    }

    #[test]
    fn end_span_closes_by_id_and_ignores_double_and_unknown_ids() {
        let sink = TraceSink::new();
        let ids: Vec<u64> = ["a", "b", "c"].iter().map(|name| sink.begin_span(name)).collect();
        assert_eq!(ids, [0, 1, 2]);
        sink.end_span(1);
        let closed = sink.snapshot().spans[1].end_micros;
        assert!(closed.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.end_span(1); // double close keeps the first end
        sink.end_span(3); // unknown ids change nothing
        sink.end_span(u64::MAX);
        let t = sink.snapshot();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].end_micros, closed);
        assert!(t.spans[0].end_micros.is_none() && t.spans[2].end_micros.is_none());
        sink.end_span(2);
        sink.end_span(0);
        let t = sink.snapshot();
        assert!(t
            .spans
            .iter()
            .enumerate()
            .all(|(i, s)| s.id == i as u64 && s.end_micros.is_some()));
        // c closed after its parent b did.
        let err = t.check_well_formed().unwrap_err();
        assert!(err.starts_with("span 2 "), "{err}");
    }

    #[test]
    fn counters_accumulate() {
        let sink = TraceSink::new();
        sink.add_counter("tokens", 10.0);
        sink.add_counter("tokens", 5.0);
        sink.add_counter("cost", 0.25);
        let t = sink.snapshot();
        assert_eq!(t.counters["tokens"], 15.0);
        assert_eq!(t.counters["cost"], 0.25);
    }

    #[test]
    fn max_counter_keeps_the_high_water_mark() {
        let sink = TraceSink::new();
        sink.max_counter("peak", 10.0);
        sink.max_counter("peak", 4.0);
        sink.max_counter("peak", 25.0);
        sink.max_counter("peak", 25.0);
        assert_eq!(sink.snapshot().counters["peak"], 25.0);
        // The global variant is a no-op without an installed sink, and
        // records through one when installed.
        max_counter("global_peak", 1.0);
        let sink = Arc::new(TraceSink::new());
        {
            let _g = install(sink.clone());
            max_counter("global_peak", 7.0);
            max_counter("global_peak", 3.0);
        }
        assert_eq!(sink.snapshot().counters["global_peak"], 7.0);
    }

    #[test]
    fn thread_local_install_nests_and_uninstalls() {
        assert!(current().is_none());
        let outer = Arc::new(TraceSink::new());
        let guard = install(outer.clone());
        emit(llm_event(1));
        {
            let inner = Arc::new(TraceSink::new());
            let _inner_guard = install(inner.clone());
            emit(llm_event(2));
            assert_eq!(inner.snapshot().events.len(), 1);
        }
        emit(llm_event(3));
        drop(guard);
        emit(llm_event(4)); // no sink: dropped
        assert!(current().is_none());
        let t = outer.snapshot();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events_modulo_timing(), vec![llm_event(1), llm_event(3)]);
    }

    #[test]
    fn span_scope_is_noop_without_sink() {
        let scope = span("nothing");
        assert!(scope.id().is_none());
    }

    #[test]
    fn json_round_trip_is_identity() {
        let sink = TraceSink::new();
        let s = sink.begin_span("session");
        sink.emit(TraceEvent::PromptBuilt { task: "pipeline_generation".into(), tokens: 321 });
        sink.emit(llm_event(2));
        sink.emit(TraceEvent::ErrorIteration { kind: "nan_in_features".into(), attempt: 1 });
        sink.emit(TraceEvent::ProfileColumn {
            column: "age".into(),
            feature_type: "numerical".into(),
            micros: 42,
        });
        sink.emit(TraceEvent::RefineStep {
            column: "gender".into(),
            action: "dedup_values".into(),
            distinct_before: 4,
            distinct_after: 2,
        });
        sink.emit(TraceEvent::PipelineOp {
            op: "impute".into(),
            rows_in: 100,
            rows_out: 100,
            micros: 7,
        });
        sink.add_counter("llm_cost_usd", 0.5);
        sink.end_span(s);
        let t = sink.snapshot();
        let text = t.to_json_string();
        let back = Trace::from_json_str(&text).unwrap();
        assert_eq!(t, back);
        back.check_well_formed().unwrap();
    }

    #[test]
    fn resilience_events_round_trip_and_aggregate() {
        let sink = TraceSink::new();
        sink.emit(TraceEvent::LlmRetry {
            model: "gpt-4o".into(),
            attempt: 1,
            error: "timeout".into(),
            backoff_seconds: 1.5,
            prompt_tokens: 120,
            cost: 0.0003,
        });
        sink.emit(TraceEvent::LlmRetry {
            model: "gpt-4o".into(),
            attempt: 2,
            error: "rate_limited".into(),
            backoff_seconds: 3.0,
            prompt_tokens: 120,
            cost: 0.0003,
        });
        sink.emit(TraceEvent::CircuitOpen {
            model: "gpt-4o".into(),
            consecutive_failures: 4,
            cooldown_seconds: 120.0,
        });
        sink.emit(TraceEvent::Degraded {
            from: "gpt-4o".into(),
            to: "gemini-1.5-pro".into(),
            reason: "circuit_open".into(),
        });
        let t = sink.snapshot();
        assert_eq!(t.llm_retry_count(), 2);
        assert_eq!(t.retry_tokens(), 240);
        assert!((t.retry_cost() - 0.0006).abs() < 1e-12);
        assert!((t.retry_backoff_seconds() - 4.5).abs() < 1e-12);
        assert_eq!(t.circuit_open_count(), 1);
        assert_eq!(t.degraded_count(), 1);
        // Retries are not completions: the LlmCall totals stay untouched.
        assert_eq!(t.total_llm_tokens(), (0, 0));
        let back = Trace::from_json_str(&t.to_json_string()).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.events[2].event.kind(), "circuit_open");
        assert_eq!(back.events[3].event.kind(), "degraded");
        assert_eq!(back.events[0].event.kind(), "llm_retry");
    }

    #[test]
    fn cache_hits_aggregate_without_touching_billed_totals() {
        let sink = TraceSink::new();
        sink.emit(llm_event(1));
        sink.emit(TraceEvent::CacheHit {
            model: "gpt-4o".into(),
            saved_tokens: 110,
            saved_cost: 0.001,
            coalesced: false,
        });
        sink.emit(TraceEvent::CacheHit {
            model: "gpt-4o".into(),
            saved_tokens: 110,
            saved_cost: 0.001,
            coalesced: true,
        });
        let t = sink.snapshot();
        assert_eq!(t.cache_hit_count(), 2);
        assert_eq!(t.cache_saved_tokens(), 220);
        assert!((t.cache_saved_cost() - 0.002).abs() < 1e-12);
        // Hits are zero-billed: only the one real LlmCall counts.
        assert_eq!(t.llm_call_count(), 1);
        assert_eq!(t.total_llm_tokens(), (100, 10));
        let back = Trace::from_json_str(&t.to_json_string()).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.events[1].event.kind(), "cache_hit");
    }

    #[test]
    fn route_decision_round_trips() {
        let sink = TraceSink::new();
        sink.emit(TraceEvent::RouteDecision {
            target_accuracy: 0.95,
            considered: 81,
            candidates: vec![
                (
                    "fix=gpt-4o,generate=llama3.1-70b,refine=llama3.1-70b,select=llama3.1-70b"
                        .into(),
                    0.9989,
                    0.011,
                ),
                ("fix=gpt-4o,generate=gpt-4o,refine=gpt-4o,select=gpt-4o".into(), 0.9994, 0.034),
            ],
            route: "fix=gpt-4o,generate=llama3.1-70b,refine=llama3.1-70b,select=llama3.1-70b"
                .into(),
            expected_accuracy: 0.9989,
            expected_cost_usd: 0.011,
            baseline_cost_usd: 0.034,
        });
        let t = sink.snapshot();
        let back = Trace::from_json_str(&t.to_json_string()).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.events[0].event.kind(), "route_decision");
    }

    #[test]
    fn token_and_cost_accessors_sum_llm_calls() {
        let sink = TraceSink::new();
        sink.emit(TraceEvent::PromptBuilt { task: "pipeline_generation".into(), tokens: 100 });
        sink.emit(llm_event(1));
        sink.emit(TraceEvent::PromptBuilt { task: "error_fix".into(), tokens: 50 });
        sink.emit(llm_event(2));
        let t = sink.snapshot();
        assert_eq!(t.total_llm_tokens(), (300, 30));
        assert!((t.total_llm_cost() - 0.003).abs() < 1e-12);
        assert_eq!(t.llm_call_count(), 2);
        let by_task = t.llm_tokens_by_task();
        assert_eq!(by_task["pipeline_generation"], (100, 10));
        assert_eq!(by_task["error_fix"], (200, 20));
    }

    #[test]
    fn cost_totals_do_not_depend_on_emission_order() {
        let total = |costs: [f64; 3]| {
            let sink = TraceSink::new();
            for cost in costs {
                sink.emit(TraceEvent::LlmCall {
                    model: "gpt-4o".into(),
                    prompt_tokens: 1,
                    completion_tokens: 1,
                    cost,
                });
                sink.emit(TraceEvent::LlmRetry {
                    model: "gpt-4o".into(),
                    attempt: 1,
                    error: "timeout".into(),
                    backoff_seconds: 0.0,
                    prompt_tokens: 1,
                    cost,
                });
                sink.emit(TraceEvent::CacheHit {
                    model: "gpt-4o".into(),
                    saved_tokens: 1,
                    saved_cost: cost,
                    coalesced: false,
                });
            }
            let t = sink.snapshot();
            [t.total_llm_cost(), t.retry_cost(), t.cache_saved_cost()].map(f64::to_bits)
        };
        // A running sum in emission order gives 0.6000000000000001 forward and 0.6 backward.
        assert_eq!(total([0.1, 0.2, 0.3]), total([0.3, 0.2, 0.1]));
    }

    #[test]
    fn last_span_seconds_picks_latest_closed() {
        let sink = TraceSink::new();
        let a = sink.begin_span("execute_pipeline");
        sink.end_span(a);
        let b = sink.begin_span("execute_pipeline");
        std::thread::sleep(std::time::Duration::from_millis(1));
        sink.end_span(b);
        let t = sink.snapshot();
        assert_eq!(t.spans_named("execute_pipeline").len(), 2);
        let last = t.last_span_seconds("execute_pipeline").unwrap();
        assert!(last >= t.spans[0].duration_micros().unwrap() as f64 / 1e6);
    }

    #[test]
    fn observer_sees_each_event_in_order_and_may_reenter() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = seen.clone();
            Arc::new(TraceSink::with_observer(move |record| {
                seen.lock().push((record.seq, record.event.kind()));
            }))
        };
        let span = sink.begin_span("session");
        sink.emit(llm_event(1));
        sink.emit(TraceEvent::PromptBuilt { task: "pipeline_generation".into(), tokens: 10 });
        sink.end_span(span);
        let order = seen.lock().clone();
        assert_eq!(order, vec![(0, "llm_call"), (1, "prompt_built")]);
        // The recorded stream is unaffected by observation.
        let t = sink.snapshot();
        assert_eq!(t.events.len(), 2);
        t.check_well_formed().unwrap();
    }

    #[test]
    fn observer_reentrancy_does_not_deadlock() {
        // An observer that snapshots the *same* sink would deadlock if the
        // state lock were still held during the callback; pin the release.
        let slot: Arc<Mutex<Option<Arc<TraceSink>>>> = Arc::new(Mutex::new(None));
        let sink = {
            let slot = slot.clone();
            Arc::new(TraceSink::with_observer(move |_| {
                if let Some(sink) = slot.lock().clone() {
                    let _ = sink.snapshot();
                }
            }))
        };
        *slot.lock() = Some(sink.clone());
        sink.emit(llm_event(1));
        assert_eq!(sink.snapshot().events.len(), 1);
        *slot.lock() = None;
    }

    #[test]
    fn shared_sink_accepts_concurrent_events() {
        let sink = Arc::new(TraceSink::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        sink.emit(llm_event(t * 100 + i));
                        sink.add_counter("n", 1.0);
                    }
                });
            }
        });
        let t = sink.snapshot();
        assert_eq!(t.events.len(), 200);
        assert_eq!(t.counters["n"], 200.0);
        t.check_well_formed().unwrap();
    }
}
