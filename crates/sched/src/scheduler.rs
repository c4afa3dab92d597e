//! Bounded concurrent LLM scheduler with caching and in-flight
//! coalescing.
//!
//! [`LlmScheduler`] wraps any [`LanguageModel`] and is itself a
//! `LanguageModel`, so it drops into every existing `&dyn` call site.
//! Three behaviors stack on top of the inner model:
//!
//! 1. **Content-addressed cache** — each request is fingerprinted
//!    ([`Fingerprint::of`]) and looked up in a shared
//!    [`CompletionCache`]; a hit is served with zero token usage and
//!    zero latency, emits a [`TraceEvent::CacheHit`] plus a `cache.hit`
//!    counter, and never reaches the inner model, so `measured_cost()`
//!    bills it at exactly zero.
//! 2. **In-flight coalescing** — when concurrent callers request the
//!    same fingerprint, one *leader* performs the upstream call while
//!    the others wait on a condvar and receive zero-billed clones.
//!    Followers are accounted exactly like cache hits (with
//!    `coalesced: true`), which keeps cost ledgers identical at every
//!    concurrency level: at concurrency 1 the second identical request
//!    would have been a plain cache hit instead.
//! 3. **Bounded fan-out** — [`LlmScheduler::complete_many`] runs a batch
//!    of independent prompts through `catdb-runtime`'s latency-bound
//!    fan-out ([`catdb_runtime::parallel_map_io`]) — at most
//!    `concurrency` in flight even on a single-core host, returning
//!    results in input order regardless of completion order.
//!
//! Upstream calls run under a nested capture sink so the scheduler can
//! observe the billed cost of the call it is about to cache; every
//! captured event (LlmCall, LlmRetry, CircuitOpen, …) is forwarded
//! verbatim to the caller's sink, so resilience accounting underneath is
//! unchanged.

use crate::cache::{CachedCompletion, CompletionCache};
use crate::fingerprint::Fingerprint;
use catdb_llm::{Completion, LanguageModel, LlmError, Prompt};
use catdb_trace::{TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Default `--llm-concurrency`.
pub const DEFAULT_LLM_CONCURRENCY: usize = 4;

/// One in-flight upstream call that followers can wait on.
struct InFlight {
    slot: Mutex<Option<Result<Completion, LlmError>>>,
    done: Condvar,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight { slot: Mutex::new(None), done: Condvar::new() }
    }

    fn publish(&self, result: Result<Completion, LlmError>) {
        *self.slot.lock().expect("inflight slot") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Completion, LlmError> {
        let mut guard = self.slot.lock().expect("inflight slot");
        loop {
            if let Some(result) = guard.as_ref() {
                return result.clone();
            }
            guard = self.done.wait(guard).expect("inflight wait");
        }
    }
}

/// How a completion was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Fresh upstream call (a cache miss).
    Upstream,
    /// Content-addressed cache hit.
    CacheHit,
    /// Joined an identical in-flight upstream call.
    Coalesced,
}

impl Served {
    /// True when the completion did not cost an upstream call.
    pub fn is_hit(self) -> bool {
        !matches!(self, Served::Upstream)
    }
}

/// Caching, coalescing, bounded-concurrency front-end for a
/// [`LanguageModel`].
pub struct LlmScheduler<'a> {
    inner: &'a dyn LanguageModel,
    cache: Arc<CompletionCache>,
    inflight: Mutex<HashMap<u128, Arc<InFlight>>>,
    concurrency: usize,
    /// Decoding-relevant options rendered as text; part of every
    /// fingerprint so e.g. a different sampling seed cannot be served a
    /// stale entry.
    decode_tag: String,
}

impl std::fmt::Debug for LlmScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlmScheduler")
            .field("model", &self.inner.model_name())
            .field("concurrency", &self.concurrency)
            .field("decode_tag", &self.decode_tag)
            .field("cache", &self.cache)
            .finish()
    }
}

impl<'a> LlmScheduler<'a> {
    pub fn new(inner: &'a dyn LanguageModel, cache: Arc<CompletionCache>) -> LlmScheduler<'a> {
        LlmScheduler {
            inner,
            cache,
            inflight: Mutex::new(HashMap::new()),
            concurrency: DEFAULT_LLM_CONCURRENCY,
            decode_tag: String::new(),
        }
    }

    /// Bound on simultaneously in-flight upstream calls in
    /// [`complete_many`](Self::complete_many) (≥ 1).
    pub fn with_concurrency(mut self, concurrency: usize) -> LlmScheduler<'a> {
        self.concurrency = concurrency.max(1);
        self
    }

    /// Set the decoding-options component of the fingerprint.
    pub fn with_decode_tag(mut self, tag: impl Into<String>) -> LlmScheduler<'a> {
        self.decode_tag = tag.into();
        self
    }

    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    pub fn cache(&self) -> &Arc<CompletionCache> {
        &self.cache
    }

    /// Fingerprints key on the model that would *serve* this prompt
    /// ([`LanguageModel::model_for`]) — for a routed backend that is the
    /// routed model, so identical prompts routed to different models
    /// never share an entry. Single-model backends are unchanged
    /// (`model_for` defaults to `model_name`).
    pub fn fingerprint(&self, prompt: &Prompt) -> Fingerprint {
        Fingerprint::of(self.inner.model_for(prompt), prompt, &self.decode_tag)
    }

    /// Complete one prompt, reporting how it was served.
    pub fn complete_served(&self, prompt: &Prompt) -> Result<(Completion, Served), LlmError> {
        let fp = self.fingerprint(prompt);

        if let Some(entry) = self.cache.get(fp) {
            self.record_hit(&entry, false);
            return Ok((entry.to_hit_completion(), Served::CacheHit));
        }

        // Register as leader, or join an identical in-flight call.
        let (flight, leader) = {
            let mut map = self.inflight.lock().expect("inflight map");
            match map.get(&fp.0) {
                Some(flight) => (flight.clone(), false),
                None => {
                    let flight = Arc::new(InFlight::new());
                    map.insert(fp.0, flight.clone());
                    (flight, true)
                }
            }
        };

        if !leader {
            let result = flight.wait()?;
            // The leader already inserted the entry; read it back for the
            // savings figures rather than re-deriving pricing here.
            if let Some(entry) = self.cache.get(fp) {
                self.record_hit(&entry, true);
                return Ok((entry.to_hit_completion(), Served::Coalesced));
            }
            // Entry already evicted (tiny cache): serve the shared
            // completion as-is, still zero-billed.
            catdb_trace::add_counter("cache.hit", 1.0);
            catdb_trace::emit(TraceEvent::CacheHit {
                model: self.inner.model_for(prompt).to_string(),
                saved_tokens: result.usage.total(),
                saved_cost: 0.0,
                coalesced: true,
            });
            return Ok((
                Completion { usage: Default::default(), latency_seconds: 0.0, ..result },
                Served::Coalesced,
            ));
        }

        catdb_trace::add_counter("cache.miss", 1.0);
        let (result, cost) = self.call_upstream(prompt);
        if let Ok(completion) = &result {
            let evicted = self.cache.insert(
                fp,
                CachedCompletion {
                    model: self.inner.model_for(prompt).to_string(),
                    text: completion.text.clone(),
                    input_tokens: completion.usage.input,
                    output_tokens: completion.usage.output,
                    latency_seconds: completion.latency_seconds,
                    cost_usd: cost,
                },
            );
            if evicted > 0 {
                catdb_trace::add_counter("cache.eviction", evicted as f64);
            }
        }
        flight.publish(result.clone());
        self.inflight.lock().expect("inflight map").remove(&fp.0);
        result.map(|c| (c, Served::Upstream))
    }

    /// Complete one prompt; `true` means it was served without an
    /// upstream call (cache hit or coalesced).
    pub fn complete_cached(&self, prompt: &Prompt) -> Result<(Completion, bool), LlmError> {
        self.complete_served(prompt).map(|(c, served)| (c, served.is_hit()))
    }

    /// Complete a batch of independent prompts with at most
    /// `concurrency` in flight, results in input order.
    pub fn complete_many(&self, prompts: &[Prompt]) -> Vec<Result<Completion, LlmError>> {
        catdb_runtime::parallel_map_io(self.concurrency, prompts, |_, p| {
            self.complete_served(p).map(|(c, _)| c)
        })
    }

    fn record_hit(&self, entry: &CachedCompletion, coalesced: bool) {
        catdb_trace::add_counter("cache.hit", 1.0);
        catdb_trace::emit(TraceEvent::CacheHit {
            model: entry.model.clone(),
            saved_tokens: entry.input_tokens + entry.output_tokens,
            saved_cost: entry.cost_usd,
            coalesced,
        });
    }

    /// Run the inner model under a capture sink so the billed cost of
    /// the call is observable, then forward every captured event and
    /// counter to the caller's sink unchanged.
    fn call_upstream(&self, prompt: &Prompt) -> (Result<Completion, LlmError>, f64) {
        let outer = catdb_trace::current();
        let capture = Arc::new(TraceSink::new());
        let result = {
            let _guard = catdb_trace::install(capture.clone());
            self.inner.complete(prompt)
        };
        let trace = capture.snapshot();
        let cost = trace.total_llm_cost();
        if let Some(outer) = outer {
            for record in trace.events {
                outer.emit(record.event);
            }
            for (name, delta) in trace.counters {
                outer.add_counter(&name, delta);
            }
        }
        (result, cost)
    }
}

impl LanguageModel for LlmScheduler<'_> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        self.complete_served(prompt).map(|(c, _)| c)
    }

    fn model_for(&self, prompt: &Prompt) -> &str {
        self.inner.model_for(prompt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_llm::TokenUsage;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Deterministic test model: counts upstream calls, optionally
    /// sleeps, answers with a pure function of the prompt text.
    struct Upstream {
        calls: AtomicUsize,
        sleep: Duration,
        fail_user: Option<String>,
    }

    impl Upstream {
        fn new() -> Upstream {
            Upstream { calls: AtomicUsize::new(0), sleep: Duration::ZERO, fail_user: None }
        }

        fn slow(ms: u64) -> Upstream {
            Upstream { sleep: Duration::from_millis(ms), ..Upstream::new() }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }
    }

    impl LanguageModel for Upstream {
        fn model_name(&self) -> &str {
            "upstream-test"
        }

        fn context_window(&self) -> usize {
            128_000
        }

        fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if !self.sleep.is_zero() {
                std::thread::sleep(self.sleep);
            }
            if self.fail_user.as_deref() == Some(prompt.user.as_str()) {
                return Err(LlmError::RateLimited { retry_after_seconds: 1.0 });
            }
            catdb_trace::emit(TraceEvent::LlmCall {
                model: "upstream-test".into(),
                prompt_tokens: prompt.user.len(),
                completion_tokens: 7,
                cost: 0.25,
            });
            Ok(Completion {
                text: format!("echo:{}", prompt.user),
                usage: TokenUsage::new(prompt.user.len(), 7),
                latency_seconds: 2.0,
            })
        }
    }

    fn p(user: &str) -> Prompt {
        Prompt::new("sys", user)
    }

    #[test]
    fn hit_skips_upstream_and_is_zero_billed() {
        let upstream = Upstream::new();
        let sched = LlmScheduler::new(&upstream, Arc::new(CompletionCache::new(16)));
        let sink = Arc::new(TraceSink::new());
        let _g = catdb_trace::install(sink.clone());

        let (first, served) = sched.complete_served(&p("alpha")).unwrap();
        assert_eq!(served, Served::Upstream);
        let (second, served) = sched.complete_served(&p("alpha")).unwrap();
        assert_eq!(served, Served::CacheHit);
        assert_eq!(upstream.calls(), 1);
        assert_eq!(first.text, second.text);
        assert_eq!(second.usage.total(), 0);
        assert_eq!(second.latency_seconds, 0.0);

        let trace = sink.snapshot();
        // One real LlmCall forwarded; the hit adds a CacheHit, not a bill.
        assert_eq!(trace.llm_call_count(), 1);
        assert_eq!(trace.cache_hit_count(), 1);
        assert_eq!(trace.cache_saved_tokens(), "alpha".len() + 7);
        assert!((trace.cache_saved_cost() - 0.25).abs() < 1e-12);
        assert_eq!(trace.counters["cache.hit"], 1.0);
        assert_eq!(trace.counters["cache.miss"], 1.0);
    }

    #[test]
    fn distinct_prompts_do_not_share_entries() {
        let upstream = Upstream::new();
        let sched = LlmScheduler::new(&upstream, Arc::new(CompletionCache::new(16)));
        let a = sched.complete(&p("alpha")).unwrap();
        let b = sched.complete(&p("beta")).unwrap();
        assert_ne!(a.text, b.text);
        assert_eq!(upstream.calls(), 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let mut upstream = Upstream::new();
        upstream.fail_user = Some("bad".into());
        let sched = LlmScheduler::new(&upstream, Arc::new(CompletionCache::new(16)));
        assert!(sched.complete(&p("bad")).is_err());
        assert!(sched.complete(&p("bad")).is_err());
        // Each attempt went upstream — failures must never be replayed.
        assert_eq!(upstream.calls(), 2);
        assert_eq!(sched.cache().len(), 0);
    }

    #[test]
    fn concurrent_identical_prompts_coalesce_into_one_call() {
        let upstream = Upstream::slow(30);
        let sched = LlmScheduler::new(&upstream, Arc::new(CompletionCache::new(16)));
        let texts: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| sched.complete(&p("same")).unwrap().text)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(upstream.calls(), 1, "followers must share the leader's call");
        assert!(texts.iter().all(|t| t == "echo:same"));
    }

    #[test]
    fn complete_many_preserves_input_order_and_bounds_concurrency() {
        let upstream = Upstream::slow(5);
        let sched =
            LlmScheduler::new(&upstream, Arc::new(CompletionCache::new(64))).with_concurrency(4);
        let prompts: Vec<Prompt> = (0..12).map(|i| p(&format!("chunk-{i}"))).collect();
        let sink = Arc::new(TraceSink::new());
        let results = {
            let _g = catdb_trace::install(sink.clone());
            sched.complete_many(&prompts)
        };
        assert_eq!(results.len(), 12);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().text, format!("echo:chunk-{i}"));
        }
        assert_eq!(upstream.calls(), 12);
        // Worker-thread events land on the caller's sink via the
        // runtime's sink propagation + the capture forwarding.
        assert_eq!(sink.snapshot().llm_call_count(), 12);
    }

    #[test]
    fn model_and_decode_tag_invalidate_entries() {
        let upstream = Upstream::new();
        let cache = Arc::new(CompletionCache::new(16));
        let greedy = LlmScheduler::new(&upstream, cache.clone()).with_decode_tag("t=0");
        let sampled = LlmScheduler::new(&upstream, cache).with_decode_tag("t=1");
        greedy.complete(&p("alpha")).unwrap();
        sampled.complete(&p("alpha")).unwrap();
        assert_eq!(upstream.calls(), 2, "different decode options must not share entries");
        greedy.complete(&p("alpha")).unwrap();
        assert_eq!(upstream.calls(), 2, "same options hit");
    }

    /// Minimal routed backend: prompts mentioning "cheap" are served by
    /// a second model name, everything else by the primary.
    struct RoutedUpstream {
        inner: Upstream,
    }

    impl LanguageModel for RoutedUpstream {
        fn model_name(&self) -> &str {
            self.inner.model_name()
        }

        fn context_window(&self) -> usize {
            self.inner.context_window()
        }

        fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
            self.inner.complete(prompt)
        }

        fn model_for(&self, prompt: &Prompt) -> &str {
            if prompt.user.contains("cheap") {
                "cheap-test"
            } else {
                self.inner.model_name()
            }
        }
    }

    #[test]
    fn fingerprints_follow_the_routed_model() {
        let routed = RoutedUpstream { inner: Upstream::new() };
        let cache = Arc::new(CompletionCache::new(16));
        let sched = LlmScheduler::new(&routed, cache.clone());
        // Same prompt text, different routed model → different entries.
        assert_ne!(sched.fingerprint(&p("cheap one")), sched.fingerprint(&p("dear one")));
        // Unrouted prompts keep the primary-model fingerprint, so the
        // pinned golden fingerprints elsewhere are untouched.
        assert_eq!(
            sched.fingerprint(&p("dear one")),
            Fingerprint::of("upstream-test", &p("dear one"), "")
        );
        sched.complete(&p("cheap one")).unwrap();
        let fp = sched.fingerprint(&p("cheap one"));
        assert_eq!(cache.get(fp).unwrap().model, "cheap-test");
    }

    #[test]
    fn scheduler_is_a_drop_in_language_model() {
        let upstream = Upstream::new();
        let sched = LlmScheduler::new(&upstream, Arc::new(CompletionCache::new(4)));
        let as_dyn: &dyn LanguageModel = &sched;
        assert_eq!(as_dyn.model_name(), "upstream-test");
        assert_eq!(as_dyn.context_window(), 128_000);
        assert_eq!(as_dyn.complete(&p("x")).unwrap().text, "echo:x");
    }
}
